// Fixture: concurrency. Threads exist only inside src/sim/parallel_engine.*;
// a lock or atomic anywhere else would hide a cross-shard ordering
// dependency the engine cannot see.
// analyze-as: src/frontend/concurrency_fixture.cc
#include <atomic>  // analyze-expect: concurrency
#include <mutex>  // analyze-expect: concurrency
#include <thread>  // analyze-expect: concurrency
#include <vector>

namespace mind {

class Tally {
 public:
  void Add() {
    std::lock_guard<std::mutex> lk(mu_);  // analyze-expect: concurrency
    ++count_;
  }

 private:
  std::mutex mu_;  // analyze-expect: concurrency
  std::atomic<int> hits_{0};  // analyze-expect: concurrency
  int count_ = 0;
};

void Pause() { std::this_thread::yield(); }  // analyze-expect: concurrency

// Not findings: names that merely start with a primitive's name, and a
// reasoned suppression.
struct Stats {
  int thread_count = 0;
  std::vector<int> atomic_sizes;
};

// mind-lint: allow(concurrency): fixture for the reasoned suppression path
std::atomic<bool> stop_flag{false};

}  // namespace mind
