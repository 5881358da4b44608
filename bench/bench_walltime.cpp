// Host wall-clock performance harness (not a paper figure).
//
// Every other bench reports *virtual* time from the cost model; this one
// measures how fast the functional hot path actually executes on the build
// machine, so perf PRs carry a real before/after trajectory. Five sections:
//
//   scalar    per-call distance() loop — control; the per-eval cost of the
//             unbatched kernel entry.
//   bulk      brute_force_topk() scans — the batched gather/score path.
//   search    greedy graph searches — gather-then-score + visited table.
//             These three repeat their whole pass until at least
//             kMinSectionSeconds have elapsed and report work over the
//             total time: one pass lasts ~10 ms at CI scale, too short to
//             hold a floor against timer and scheduler noise.
//   engine    AlgasEngine closed loop on the Fig 10/11 configuration
//             (batch 16, TopK 16, L 128, 4 CTAs, beam extend) — end-to-end
//             queries/s and DES events/s.
//   construction  deterministic batched NSW build on a capped corpus —
//             insertions/s at threads=1 (gated) plus the parallel speedup
//             at the default thread count (informational; CI machines have
//             unpredictable core counts).
//
// Prints a TSV block (like every bench) and writes a JSON summary to
// ALGAS_BENCH_OUT (default "BENCH_walltime.json"), which
// scripts/check_bench.py gates against bench/walltime_baseline.json.
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/registry.hpp"
#include "distance/distance.hpp"
#include "metrics/table.hpp"
#include "search/greedy.hpp"

using namespace algas;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

constexpr double kMinSectionSeconds = 0.2;

/// Runs `pass` (one whole pass of a section) until kMinSectionSeconds
/// have elapsed, at least once. Returns the passes run and the seconds
/// they took.
template <typename Pass>
std::pair<std::size_t, double> repeat_pass(Pass&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t passes = 0;
  double wall_s = 0.0;
  do {
    pass();
    ++passes;
    wall_s = seconds_since(t0);
  } while (wall_s < kMinSectionSeconds);
  return {passes, wall_s};
}

struct Section {
  std::string name;
  double evals_per_s = 0.0;    // distance evaluations per second (0 = n/a)
  double queries_per_s = 0.0;  // queries per second (0 = n/a)
  double wall_s = 0.0;
};

}  // namespace

int main() {
  bench::print_header("walltime",
                      "host wall-clock throughput of the functional hot path "
                      "(not a paper figure; virtual time is unaffected)");

  const std::string ds_name = bench::selected_datasets().front();
  const Dataset& ds = bench::dataset(ds_name);
  const Graph& g = bench::graph(ds_name, GraphKind::kCagra);
  const std::size_t n = ds.num_base();

  std::vector<Section> sections;

  // --- scalar control: one distance() call per point --------------------
  {
    const std::size_t nq = std::min<std::size_t>(
        bench::query_budget(ds, 8), std::max<std::size_t>(1, ds.num_queries()));
    float sink = 0.0f;
    const auto [passes, wall_s] = repeat_pass([&] {
      for (std::size_t q = 0; q < nq; ++q) {
        const auto query = ds.query(q);
        for (std::size_t i = 0; i < n; ++i) {
          sink += ds.score(query, static_cast<NodeId>(i));
        }
      }
    });
    Section s{"scalar"};
    s.wall_s = wall_s;
    s.evals_per_s = static_cast<double>(passes * nq * n) / s.wall_s;
    sections.push_back(s);
    if (sink == 42.0f) std::cerr << "";  // keep the loop observable
  }

  // --- bulk scans: brute-force TopK over the whole base -----------------
  {
    const std::size_t nq = std::min<std::size_t>(
        bench::query_budget(ds, 8), std::max<std::size_t>(1, ds.num_queries()));
    std::size_t found = 0;
    const auto [passes, wall_s] = repeat_pass([&] {
      for (std::size_t q = 0; q < nq; ++q) {
        found +=
            brute_force_topk(ds, ds.query(q), 10, search::AcceptPredicate{})
                .size();
      }
    });
    Section s{"bulk"};
    s.wall_s = wall_s;
    s.evals_per_s = static_cast<double>(passes * nq * n) / s.wall_s;
    sections.push_back(s);
    if (found == 0) throw std::runtime_error("bulk scan found nothing");
  }

  // --- graph search: sequential greedy sweeps ---------------------------
  {
    const std::size_t nq = bench::query_budget(ds, 100);
    search::SearchConfig cfg;
    cfg.topk = 16;
    cfg.candidate_len = 128;
    sim::CostModel cm;
    std::size_t scored = 0;
    const auto [passes, wall_s] = repeat_pass([&] {
      for (std::size_t q = 0; q < nq; ++q) {
        const auto res = search::greedy_search(ds, g, cm, cfg, ds.query(q));
        scored += res.stats.scored_points;
      }
    });
    Section s{"search"};
    s.wall_s = wall_s;
    s.evals_per_s = static_cast<double>(scored) / s.wall_s;
    s.queries_per_s = static_cast<double>(passes * nq) / s.wall_s;
    sections.push_back(s);
  }

  // --- end-to-end engine: Fig 10/11 configuration -----------------------
  double sim_events_per_s = 0.0;
  double engine_recall = 0.0;
  {
    const std::size_t nq = bench::query_budget(ds, 200);
    core::AlgasEngine engine(ds, g, bench::algas_config(16, 128, 16));
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = engine.run_closed_loop(nq);
    Section s{"engine"};
    s.wall_s = seconds_since(t0);
    s.queries_per_s = static_cast<double>(nq) / s.wall_s;
    sim_events_per_s = static_cast<double>(rep.sim_events) / s.wall_s;
    engine_recall = rep.recall;
    sections.push_back(s);
  }

  // --- graph construction: deterministic batched NSW build --------------
  // The serial (threads=1) run is the gated number — insertions/s on one
  // core is machine-comparable. The default-thread run only feeds the
  // informational speedup (CI core counts vary); byte-identity of the two
  // graphs is pinned by tests, not here.
  double construction_ips = 0.0;
  double construction_speedup = 0.0;
  double construction_parallel_wall_s = 0.0;
  {
    const Dataset build_ds =
        load_bench_dataset_sized(ds_name, 10000, 10, 32, /*use_cache=*/true);
    BuildConfig cfg = bench::bench_build_config();
    cfg.threads = 1;
    const BuildReport serial = build_graph(GraphKind::kNsw, build_ds, cfg);
    Section s{"construction"};
    s.wall_s = serial.wall_build_s;
    s.evals_per_s = static_cast<double>(serial.scored_points) / s.wall_s;
    construction_ips = static_cast<double>(build_ds.num_base()) / s.wall_s;
    sections.push_back(s);

    cfg.threads = 0;  // default: ALGAS_BUILD_THREADS, then hardware
    const BuildReport parallel = build_graph(GraphKind::kNsw, build_ds, cfg);
    construction_parallel_wall_s = parallel.wall_build_s;
    construction_speedup = serial.wall_build_s / parallel.wall_build_s;
  }

  metrics::TsvTable table(
      {"section", "wall_s", "distance_evals_per_s", "queries_per_s"});
  for (const auto& s : sections) {
    table.row()
        .cell(s.name)
        .cell(s.wall_s, 3)
        .cell(s.evals_per_s, 0)
        .cell(s.queries_per_s, 1);
  }
  table.print(std::cout);

  // Four decimals: enough for scale fractions and sub-second walls.
  constexpr int kDecimals = 4;
  bench::JsonReport report("walltime");
  report.text("bench", "walltime")
      .text("dataset", ds_name)
      .integer("n_base", n)
      .integer("dim", ds.dim())
      .text("storage", storage_codec_name(ds.storage()))
      .number("scale", dataset_scale(), kDecimals)
      .number("engine_recall", engine_recall, kDecimals)
      .number("sim_events_per_s", sim_events_per_s, kDecimals)
      .number("construction_insertions_per_s", construction_ips, kDecimals)
      .number("construction_speedup", construction_speedup, kDecimals)
      .number("construction_parallel_wall_s", construction_parallel_wall_s,
              kDecimals);
  for (const auto& s : sections) {
    report.number(s.name + "_wall_s", s.wall_s, kDecimals);
    if (s.evals_per_s > 0.0) {
      report.number(s.name + "_distance_evals_per_s", s.evals_per_s,
                    kDecimals);
    }
    if (s.queries_per_s > 0.0) {
      report.number(s.name + "_queries_per_s", s.queries_per_s, kDecimals);
    }
  }
  report.write(std::cerr);
  return 0;
}
