// Fixture: libc-rand. All randomness flows through the seeded mind::Rng;
// libc and std::random_device sources are reported.
// analyze-as: src/overlay/libc_rand_fixture.cc
#include <cstdlib>
#include <random>

namespace mind {

int Roll() { return rand() % 6; }  // analyze-expect: libc-rand

void Seed(unsigned s) { srand(s); }  // analyze-expect: libc-rand

unsigned Entropy() {
  std::random_device rd;  // analyze-expect: libc-rand
  return rd();
}

// Not findings: identifiers that merely contain "rand", a literal, and a
// reasoned suppression.
int operand(int x) { return x; }
int Brand() { return operand(3); }
const char* kHint = "rand() is banned";

int Legacy() {
  // mind-lint: allow(libc-rand): fixture for the reasoned suppression path
  return rand();
}

}  // namespace mind
