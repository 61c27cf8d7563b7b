// Fixture: backend-purity. The store layout class (SortedRunsBackend) must
// not reference telemetry, Rng, EventQueue or other simulation-visible types;
// the sanctioned exception is an optional counter with a reasoned allow
// (DESIGN.md §13). Each namespace below holds one variant of the class.

namespace telemetry {
class MetricsRegistry;
class Counter;
}  // namespace telemetry

namespace mind {

// Clean: pure data structure.
namespace pure {
class SortedRunsBackend {
 public:
  void Append(int row) { rows_ += row; }
  int size() const { return rows_; }

 private:
  int rows_ = 0;
};
}  // namespace pure

// Violations: a telemetry member without a reasoned allow, and a random
// number generator inside an out-of-class method body.
namespace chatty {
class SortedRunsBackend {
 public:
  void Append(int row) { rows_ += row; }
  void Compact();

 private:
  telemetry::Counter* appends_ = nullptr;  // analyze-expect: backend-purity
  int rows_ = 0;
};

void SortedRunsBackend::Compact() {
  Rng rng(rows_);  // analyze-expect: backend-purity
  rows_ = 0;
}

// Transitive: deriving from the layout class is still the layout.
class GrandchildRuns : public SortedRunsBackend {
 private:
  telemetry::Counter* merges_ = nullptr;  // analyze-expect: backend-purity
};
}  // namespace chatty

// Sanctioned: optional counter with the documented allow.
namespace blessed {
class SortedRunsBackend {
 public:
  void Append(int row) { rows_ += row; }

 private:
  // mind-lint: allow(backend-purity): optional counter per DESIGN.md §13
  telemetry::Counter* appends_ = nullptr;
  int rows_ = 0;
};
}  // namespace blessed

// Not the layout: free to reference telemetry.
class Recorder {
 private:
  telemetry::Counter* events_ = nullptr;
};

}  // namespace mind
