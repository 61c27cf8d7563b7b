// Fixture: raw-alloc. Message and event payloads in the pooled directories
// (src/sim, src/overlay) go through pool::Allocate; general-heap allocation
// is reported. Placement new constructs into pool storage and stays legal.
// analyze-as: src/sim/raw_alloc_fixture.cc
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace mind {

struct Msg {
  int v = 0;
};

Msg* Fresh() { return new Msg(); }  // analyze-expect: raw-alloc

void* Buffer(std::size_t n) { return malloc(n); }  // analyze-expect: raw-alloc

std::shared_ptr<Msg> Shared() {
  return std::make_shared<Msg>();  // analyze-expect: raw-alloc
}

// Not findings: placement new in both spellings, and a reasoned
// suppression.
Msg* Construct(void* mem) { return ::new (mem) Msg(); }
Msg* ConstructUnqualified(void* mem) { return new (mem) Msg(); }

Msg* Singleton() {
  // mind-lint: allow(raw-alloc): fixture for the reasoned suppression path
  static Msg* m = new Msg();
  return m;
}

}  // namespace mind
