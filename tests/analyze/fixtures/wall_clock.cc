// Fixture: wall-clock. Simulation code reads virtual time only
// (EventQueue::now()); every real-time source is reported.
// analyze-as: src/mind/wall_clock_fixture.cc
#include <sys/time.h>

#include <chrono>
#include <ctime>

namespace mind {

long SteadyNow() {
  auto t = std::chrono::steady_clock::now();  // analyze-expect: wall-clock
  return t.time_since_epoch().count();
}

long SystemNow() {
  auto t = std::chrono::system_clock::now();  // analyze-expect: wall-clock
  return t.time_since_epoch().count();
}

long LibcNow() { return time(nullptr); }  // analyze-expect: wall-clock

long QualifiedNow() { return ::time(0); }  // analyze-expect: wall-clock

void TimeOfDay(timeval* tv) {
  gettimeofday(tv, nullptr);  // analyze-expect: wall-clock
}

// Not findings: comments and string literals that name a clock, a method
// that happens to be called time(), and a reasoned suppression.
// std::chrono::steady_clock::now() inside a comment
const char* kClockName = "std::chrono::system_clock";

struct Stamp {
  long time(long t) const { return t; }
};

long Diagnostic() {
  // mind-lint: allow(wall-clock): diagnostic duration, never read by simulation logic
  auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count();
}

}  // namespace mind
