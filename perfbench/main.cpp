// perfbench — runs one named workload in one process and prints a report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Construction and ground truth use ALGAS_BUILD_THREADS worker threads
// (run.py pins it); the resolved count is printed with the config.
//
// Lines before the last describe inputs, metrics (name, value, unit, how
// measured) and checks. The last line is one JSON object:
//   {"correct": bool, "attempted": int, "failed": int,
//    "metrics": {name: {"value": number, "unit": string}, ...}}
// carrying the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Exit status: 0 when every check passed, 1 when a check
// failed, 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\nworkloads:",
               why);
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

unsigned long long parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

void print_metric(const char* kind, const perfbench::Metric& m) {
  if (std::isnan(m.value)) {
    std::printf("%s %-32s n/a %s  # %s\n", kind, m.name.c_str(),
                m.unit.c_str(), m.note.c_str());
    return;
  }
  std::printf("%s %-32s %.10g %s%s  # %s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.bounded ? "" : " (unbounded)", m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string trace_out;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = parse_uint("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_uint("--seconds", value));
    } else if (flag == "--trace") {
      const auto t = parse_uint("--trace", value);
      if (t > 1) usage("--trace takes 0 or 1");
      opts.trace = t == 1;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::SpanLog spans;
  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opts, opts.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 2;
  }

  for (const auto& line : rep.info) std::printf("# %s\n", line.c_str());
  for (const auto& m : rep.end_to_end) print_metric("metric", m);
  for (const auto& m : rep.per_layer) print_metric("layer", m);
  for (const auto& c : rep.checks) {
    std::printf("check %-44s %s  # %s\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  if (opts.trace && !trace_out.empty()) {
    spans.write_chrome_json(trace_out, opts.workload);
    std::printf("# spans: %zu written to %s\n", spans.spans().size(),
                trace_out.c_str());
  }

  std::vector<perfbench::Metric> metrics = rep.per_layer;
  if (!opts.trace) {
    for (const auto& m : rep.end_to_end) {
      if (m.bounded) metrics.push_back(m);
    }
  }
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 2;
    }
  }
  const bool correct = rep.correct();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
