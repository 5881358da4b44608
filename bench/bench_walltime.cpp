// Host wall-clock performance harness (not a paper figure).
//
// Every other bench reports *virtual* time from the cost model; this one
// measures how fast the functional hot path actually executes on the build
// machine, so perf PRs carry a real before/after trajectory. Sections:
//
//   scalar    per-call Dataset::score() loop — control; the per-eval cost
//             of a batch of one.
//   gather6   Dataset::distance_batch over seeded random gathers of 6 rows,
//             the mean batch a search round scores (ungated); gather6_f16
//             and gather6_int8 score the same gathers from quantized rows.
//   bulk      brute_force_topk() scans — the batched gather/score path.
//   search    greedy graph searches — gather-then-score + visited table.
//   candidate_merge  steady-state list upkeep at L = 128: search-sized
//             rounds on a full list, each a take_unchecked, then ~10
//             scored entries of which about half can enter, pruned,
//             sorted and merged (rounds/s, informational).
//   topk_merge  host merge_sorted_runs of 4 sorted runs of 128 into a
//             TopK of 16 (the slot's host merge).
//   engine    AlgasEngine closed loop on the Fig 10/11 configuration
//             (batch 16, TopK 16, L 128, 4 CTAs, beam extend) — end-to-end
//             queries/s and DES events/s (informational); every timed run
//             must return the first run's results.
//             These seven run bench::median_trial: 5 trials, each repeating
//             its whole pass until at least 0.2 s have elapsed, and the
//             section reports the trial with the median rate: one pass
//             lasts ~10 ms at CI scale, too short to hold a floor against
//             timer and scheduler noise.
//   construction  deterministic batched NSW build on a capped corpus —
//             insertions/s at threads=1 (gated; the median of kBuilds
//             builds) plus the parallel speedup at the default thread
//             count (informational; CI machines have unpredictable core
//             counts).
//
// Prints a TSV block (like every bench) and writes a JSON summary to
// ALGAS_BENCH_OUT (default "BENCH_walltime.json"), which
// scripts/check_bench.py gates against bench/walltime_baseline.json. The
// summary names the distance kernel the host ran (distance_kernel), so a
// run on a host without AVX2 explains its own numbers.
#include <algorithm>
#include <array>
#include <iostream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/registry.hpp"
#include "distance/distance.hpp"
#include "distance/kernels.hpp"
#include "metrics/table.hpp"
#include "search/candidate_list.hpp"
#include "search/greedy.hpp"
#include "search/topk_merge.hpp"

using namespace algas;

namespace {

/// Serial construction builds; the section reports the median wall.
constexpr std::size_t kBuilds = 3;

using bench::median_trial;
using bench::Trial;

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

  // --- gathers of 6 rows: one search round's batch, per codec -----------
  const auto gather6 = [&](const std::string& name, const Dataset& d) {
    constexpr std::size_t kRows = 6, kGathers = 4096;
    Rng rng(kRows);
    std::vector<NodeId> ids(kGathers * kRows);
    for (auto& id : ids) id = static_cast<NodeId>(rng.next_below(n));
    // A search computes its query's norm once, not once per round.
    const std::size_t nq = std::max<std::size_t>(1, d.num_queries());
    std::vector<std::optional<float>> query_norms(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      query_norms[q] = d.query_norm(d.query(q));
    }
    std::vector<float> out(kRows);
    float sink = 0.0f;
    const Trial t = median_trial([&] {
      for (std::size_t i = 0; i < kGathers; ++i) {
        d.distance_batch(d.query(i % nq),
                         std::span(ids).subspan(i * kRows, kRows), out,
                         query_norms[i % nq]);
        sink += out[0];
      }
      return kGathers * kRows;
    });
    Section s{name};
    s.wall_s = t.wall_s;
    s.evals_per_s = t.rate();
    sections.push_back(s);
    if (sink == 42.0f) std::cerr << "";  // keep the loop observable
  };
  gather6("gather6", ds);
  for (const StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
    Dataset quantized = ds;
    quantized.set_storage(codec);
    gather6(std::string("gather6_") + storage_codec_name(codec), quantized);
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

  // --- candidate-list upkeep: steady-state rounds at L = 128 -----------
  // Each query fills the list once, then runs kRounds rounds: take the best
  // unchecked entry, drop the round's entries that cannot enter, sort and
  // merge the rest. A round scores kScored entries spread over [0.5, 1.5)
  // times the last entry's distance, so about half can enter. The rounds
  // are drawn once, against the list they will meet; every pass replays
  // them.
  {
    constexpr std::size_t kL = 128, kQueries = 16, kRounds = 64, kScored = 10;
    struct Query {
      std::vector<KV> fill;
      std::vector<std::vector<KV>> rounds;
    };
    std::vector<Query> queries(kQueries);
    search::CandidateList list(kL);
    std::vector<KV> expand;
    std::array<std::size_t, 1> taken{};
    // One round's upkeep, as IntraCtaSearch::step runs it; returns whether
    // any entry entered.
    const auto upkeep = [&](const std::vector<KV>& round) {
      list.take_unchecked(1, taken);
      expand.clear();
      for (const KV& kv : round) {
        if (list.can_enter(kv)) expand.push_back(kv);
      }
      if (expand.empty()) return false;
      std::sort(expand.begin(), expand.end());
      list.merge_sorted(expand);
      return true;
    };
    Rng rng(kL * 977);
    for (Query& q : queries) {
      NodeId next_id = 0;
      for (std::size_t i = 0; i < kL; ++i) {
        q.fill.push_back(KV::make(1.0f + rng.next_float(), next_id++));
      }
      std::sort(q.fill.begin(), q.fill.end());
      list.reset();
      list.merge_sorted(q.fill);
      for (std::size_t r = 0; r < kRounds; ++r) {
        std::vector<KV>& round = q.rounds.emplace_back();
        const float last = list.at(kL - 1).dist;
        for (std::size_t i = 0; i < kScored; ++i) {
          round.push_back(
              KV::make(last * (0.5f + rng.next_float()), next_id++));
        }
        upkeep(round);
      }
    }
    std::size_t merged = 0;
    const Trial t = median_trial([&] {
      for (const Query& q : queries) {
        list.reset();
        list.merge_sorted(q.fill);
        for (const auto& round : q.rounds) merged += upkeep(round);
      }
      return kQueries * kRounds;
    });
    Section s{"candidate_merge"};
    s.wall_s = t.wall_s;
    s.merges_per_s = t.rate();
    sections.push_back(s);
    if (merged == 0) throw std::runtime_error("candidate upkeep merged nothing");
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
  // A first, untimed run gives the recall, the event count and the
  // results every timed run must reproduce.
  double sim_events_per_s = 0.0;
  double engine_recall = 0.0;
  {
    const std::size_t nq = bench::query_budget(ds, 200);
    core::AlgasEngine engine(ds, g, bench::algas_config(16, 128, 16));
    const auto first = engine.run_closed_loop(nq);
    const std::uint64_t checksum = bench::results_checksum(first.collector);
    const Trial t = median_trial([&] {
      const auto rep = engine.run_closed_loop(nq);
      if (bench::results_checksum(rep.collector) != checksum) {
        throw std::runtime_error(
            "bench_walltime: a timed engine run changed its results");
      }
      return nq;
    });
    Section s{"engine"};
    s.wall_s = t.wall_s;
    s.queries_per_s = t.rate();
    sim_events_per_s =
        static_cast<double>(t.passes * first.sim_events) / t.wall_s;
    engine_recall = first.recall;
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
      .text("distance_kernel", distance_kernel_name())
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
