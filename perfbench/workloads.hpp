// The benchmark's workloads. Each is a pure function of its name and seed:
// the inputs (data, queries, arrivals, the churn schedule) are generated
// from the seed and the constants printed with the report, never calibrated
// from a run of the code under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// How long the timed passes run (at least kMinPasses of them).
  double seconds = 10.0;
  /// false: untraced passes give the end-to-end metrics. true: untraced and
  /// traced passes alternate, and spans, replays and probes give the
  /// per-layer metrics plus the tracing overhead.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< how it was measured (printed, not in the JSON)
  /// End-to-end only: carried in the JSON result and bounded in
  /// BENCHMARK.json. Unbounded ones are printed (NaN reads "n/a").
  bool bounded = true;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::vector<std::string> info;   ///< inputs, constants, probe readings
  std::vector<Metric> end_to_end;  ///< host figures from untraced passes
  std::vector<Metric> per_layer;   ///< traced runs only
  std::vector<Check> checks;
  std::size_t attempted = 0;  ///< queries plus row writes in timed passes
  std::size_t failed = 0;     ///< misses plus writes that did not apply

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return !checks.empty();
  }
};

std::vector<std::string> workload_names();

/// Run one workload. `log` is non-null exactly when opts.trace is set.
/// Throws std::invalid_argument for an unknown workload name.
Report run_workload(const Options& opts, SpanLog* log);

}  // namespace perfbench
