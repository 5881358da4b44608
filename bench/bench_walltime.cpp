// Host wall-clock performance harness (not a paper figure).
//
// Every other bench reports *virtual* time from the cost model; this one
// measures how fast the functional hot path actually executes on the build
// machine, so perf PRs carry a real before/after trajectory. Sections:
//
//   scalar    per-call Dataset::score() loop — control; the per-eval cost
//             of a batch of one.
//   bulk      brute_force_topk() scans — the batched gather/score path.
//   search    greedy graph searches — gather-then-score + visited table.
//   candidate_merge  CandidateList::merge_sorted of a sorted 64-entry
//             expand list into an L = 128 list (the per-round upkeep).
//   topk_merge  host merge_sorted_runs of 4 sorted runs of 128 into a
//             TopK of 16 (the slot's host merge).
//             These five run kTrials trials; each trial repeats its whole
//             pass until at least kMinTrialSeconds have elapsed, and the
//             section reports the trial with the median rate: one pass
//             lasts ~10 ms at CI scale, too short to hold a floor against
//             timer and scheduler noise.
//   engine    AlgasEngine closed loop on the Fig 10/11 configuration
//             (batch 16, TopK 16, L 128, 4 CTAs, beam extend) — end-to-end
//             queries/s and DES events/s.
//   construction  deterministic batched NSW build on a capped corpus —
//             insertions/s at threads=1 (gated; the median of kBuilds
//             builds) plus the parallel speedup at the default thread
//             count (informational; CI machines have unpredictable core
//             counts).
//
// Prints a TSV block (like every bench) and writes a JSON summary to
// ALGAS_BENCH_OUT (default "BENCH_walltime.json"), which
// scripts/check_bench.py gates against bench/walltime_baseline.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/registry.hpp"
#include "distance/distance.hpp"
#include "metrics/table.hpp"
#include "search/candidate_list.hpp"
#include "search/greedy.hpp"
#include "search/topk_merge.hpp"

using namespace algas;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

constexpr double kMinTrialSeconds = 0.2;
constexpr std::size_t kTrials = 5;
/// Serial construction builds; the section reports the median wall.
constexpr std::size_t kBuilds = 3;

/// One trial: `passes` whole passes doing `work` units in `wall_s`.
struct Trial {
  std::size_t passes = 0;
  double work = 0.0;
  double wall_s = 0.0;
  double rate() const { return work / wall_s; }
};

/// Runs `pass` (one whole pass of a section, returning the work units it
/// did) until kMinTrialSeconds have elapsed, at least once.
template <typename Pass>
Trial repeat_pass(Pass& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  Trial t;
  do {
    t.work += static_cast<double>(pass());
    ++t.passes;
    t.wall_s = seconds_since(t0);
  } while (t.wall_s < kMinTrialSeconds);
  return t;
}

/// kTrials trials of repeat_pass(pass); the one with the median rate.
template <typename Pass>
Trial median_trial(Pass&& pass) {
  std::array<Trial, kTrials> trials;
  for (auto& t : trials) t = repeat_pass(pass);
  std::sort(trials.begin(), trials.end(), [](const Trial& a, const Trial& b) {
    return a.rate() < b.rate();
  });
  return trials[kTrials / 2];
}

struct Section {
  std::string name;
  double evals_per_s = 0.0;    // distance evaluations per second (0 = n/a)
  double queries_per_s = 0.0;  // queries per second (0 = n/a)
  double merges_per_s = 0.0;   // list merges per second (0 = n/a)
  double wall_s = 0.0;
};

std::vector<KV> random_kvs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KV> v(n);
  for (auto& kv : v) {
    kv = KV::make(rng.next_float(),
                  static_cast<NodeId>(rng.next_below(1 << 20)));
  }
  std::sort(v.begin(), v.end());
  return v;
}

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
    const Trial t = median_trial([&] {
      for (std::size_t q = 0; q < nq; ++q) {
        const auto query = ds.query(q);
        for (std::size_t i = 0; i < n; ++i) {
          sink += ds.score(query, static_cast<NodeId>(i));
        }
      }
      return nq * n;
    });
    Section s{"scalar"};
    s.wall_s = t.wall_s;
    s.evals_per_s = t.rate();
    sections.push_back(s);
    if (sink == 42.0f) std::cerr << "";  // keep the loop observable
  }

  // --- bulk scans: brute-force TopK over the whole base -----------------
  {
    const std::size_t nq = std::min<std::size_t>(
        bench::query_budget(ds, 8), std::max<std::size_t>(1, ds.num_queries()));
    std::size_t found = 0;
    const Trial t = median_trial([&] {
      for (std::size_t q = 0; q < nq; ++q) {
        found +=
            brute_force_topk(ds, ds.query(q), 10, search::AcceptPredicate{})
                .size();
      }
      return nq * n;
    });
    Section s{"bulk"};
    s.wall_s = t.wall_s;
    s.evals_per_s = t.rate();
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
    const Trial t = median_trial([&] {
      std::size_t scored = 0;
      for (std::size_t q = 0; q < nq; ++q) {
        const auto res = search::greedy_search(ds, g, cm, cfg, ds.query(q));
        scored += res.stats.scored_points;
      }
      return scored;
    });
    Section s{"search"};
    s.wall_s = t.wall_s;
    s.evals_per_s = t.rate();
    s.queries_per_s = static_cast<double>(t.passes * nq) / t.wall_s;
    sections.push_back(s);
  }

  // --- candidate-list upkeep: one expand round's merge at L = 128 -------
  {
    constexpr std::size_t kMerges = 1000;
    search::CandidateList list(128);
    const auto expand = random_kvs(64, 64 * 977);
    std::size_t sink = 0;
    const Trial t = median_trial([&] {
      for (std::size_t i = 0; i < kMerges; ++i) {
        list.reset();
        sink += list.merge_sorted(expand);
      }
      return kMerges;
    });
    Section s{"candidate_merge"};
    s.wall_s = t.wall_s;
    s.merges_per_s = t.rate();
    sections.push_back(s);
    if (sink == 0) throw std::runtime_error("candidate merge ran no network");
  }

  // --- host TopK merge: 4 sorted runs of 128 into a TopK of 16 ----------
  {
    constexpr std::size_t kMerges = 1000, kRuns = 4, kRunLen = 128;
    std::vector<KV> concat;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const auto run = random_kvs(kRunLen, r + 1);
      concat.insert(concat.end(), run.begin(), run.end());
    }
    std::size_t merged = 0;
    const Trial t = median_trial([&] {
      for (std::size_t i = 0; i < kMerges; ++i) {
        merged += search::merge_sorted_runs(concat, kRuns, kRunLen, 16,
                                            search::AcceptPredicate{})
                      .size();
      }
      return kMerges;
    });
    Section s{"topk_merge"};
    s.wall_s = t.wall_s;
    s.merges_per_s = t.rate();
    sections.push_back(s);
    if (merged == 0) throw std::runtime_error("host merge found nothing");
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
  // The serial (threads=1) median is the gated number — insertions/s on
  // one core is machine-comparable. The default-thread run only feeds the
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
    BuildReport serial;
    std::array<double, kBuilds> walls;
    for (double& wall : walls) {
      serial = build_graph(GraphKind::kNsw, build_ds, cfg);
      wall = serial.wall_build_s;
    }
    std::sort(walls.begin(), walls.end());
    Section s{"construction"};
    s.wall_s = walls[kBuilds / 2];
    s.evals_per_s = static_cast<double>(serial.scored_points) / s.wall_s;
    construction_ips = static_cast<double>(build_ds.num_base()) / s.wall_s;
    sections.push_back(s);

    cfg.threads = 0;  // default: ALGAS_BUILD_THREADS, then hardware
    const BuildReport parallel = build_graph(GraphKind::kNsw, build_ds, cfg);
    construction_parallel_wall_s = parallel.wall_build_s;
    construction_speedup = s.wall_s / parallel.wall_build_s;
  }

  metrics::TsvTable table({"section", "wall_s", "distance_evals_per_s",
                           "queries_per_s", "merges_per_s"});
  for (const auto& s : sections) {
    table.row()
        .cell(s.name)
        .cell(s.wall_s, 3)
        .cell(s.evals_per_s, 0)
        .cell(s.queries_per_s, 1)
        .cell(s.merges_per_s, 0);
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
    if (s.merges_per_s > 0.0) {
      report.number(s.name + "_merges_per_s", s.merges_per_s, kDecimals);
    }
  }
  report.write(std::cerr);
  return 0;
}
