// Fixture: raw-alloc scope. The pooled-allocation fence covers src/sim and
// src/overlay only; the same allocations in src/mind are not reported.
// analyze-as: src/mind/raw_alloc_outside_pools_fixture.cc
#include <cstddef>
#include <cstdlib>
#include <memory>

namespace mind {

struct Msg {
  int v = 0;
};

Msg* Fresh() { return new Msg(); }

void* Buffer(std::size_t n) { return malloc(n); }

std::shared_ptr<Msg> Shared() { return std::make_shared<Msg>(); }

}  // namespace mind
