// Fixture: concurrency scope. The parallel engine is the one place threads
// exist, so it is exempt from concurrency, and from nothing else: a
// wall-clock read there is still reported.
// analyze-as: src/sim/parallel_engine.cc
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace mind {

class Engine {
 public:
  void Wake() {
    std::lock_guard<std::mutex> lk(mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  long Stamp() {
    auto t = std::chrono::steady_clock::now();  // analyze-expect: wall-clock
    return t.time_since_epoch().count();
  }

 private:
  std::mutex mu_;
  std::atomic<unsigned> epoch_{0};
  std::thread worker_;
};

}  // namespace mind
