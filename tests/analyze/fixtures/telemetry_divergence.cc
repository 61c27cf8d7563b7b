// Fixture: telemetry-divergence. Simulation logic must behave the same with
// telemetry compiled in or out, so only src/telemetry may test the build
// flag.
// analyze-as: src/storage/telemetry_divergence_fixture.cc

namespace mind {

int Budget() {
#ifndef MIND_TELEMETRY_DISABLED  // analyze-expect: telemetry-divergence
  return 2;
#else
  return 1;
#endif
}

#if defined(MIND_TELEMETRY_DISABLED)  // analyze-expect: telemetry-divergence
int Extra() { return 0; }
#endif

// Not findings: the flag named in a comment, and a reasoned suppression.
// Counters compile to no-ops under MIND_TELEMETRY_DISABLED.
// mind-lint: allow(telemetry-divergence): fixture for the reasoned suppression path
#ifdef MIND_TELEMETRY_DISABLED
int Quiet() { return 0; }
#endif

}  // namespace mind
