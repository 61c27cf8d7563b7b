// A fixed reference workload that uses none of the library: its wall time
// says how fast the host runs at the moment it is measured.
//
// The benchmark runs it at the edges of every setup and drive phase and
// scales the phase's wall time by it, so that a host that slows for minutes
// (other tenants of a shared machine contending for its caches, memory and
// cores) slows the reference as much as the phase and the ratio stays. A
// change to the library moves the phase and leaves the reference where it
// was: the reference is its own translation unit, compiled with the
// benchmark's flags only (see CMakeLists.txt), and links nothing of the
// repository.
#ifndef MIND_PERFBENCH_REFERENCE_H_
#define MIND_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class Reference {
 public:
  Reference();

  /// Runs the fixed workload once; returns a checksum of what it computed,
  /// the same on every call.
  uint64_t Run();

 private:
  std::vector<uint64_t> table_;
  std::vector<uint64_t> scan_;
  std::vector<double> sorted_;
};

}  // namespace perfbench

#endif  // MIND_PERFBENCH_REFERENCE_H_
