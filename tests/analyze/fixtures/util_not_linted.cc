// Fixture: directory scope. The source-text rules cover the
// simulation-facing directories only; src/util hosts the allocator and the
// platform shims, so none of them is reported here.
// analyze-as: src/util/util_not_linted_fixture.cc
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace mind {

struct Slab {
  int v = 0;
};

std::atomic<int> live{0};
std::mutex depot_mu;

long Now() {
  auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count();
}

int Jitter() { return rand(); }

Slab* Fresh() { return new Slab(); }

std::shared_ptr<Slab> Shared() { return std::make_shared<Slab>(); }

void* Block(size_t n) { return malloc(n); }

}  // namespace mind
