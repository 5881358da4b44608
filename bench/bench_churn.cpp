// bench_churn — the streaming-mutability recall gate.
//
// Exercises the full MutableIndex lifecycle the way a serving system would:
// start from the first 70% of the bench dataset, then run four churn waves
// that each tombstone a slice of the original rows, stage a slice of the
// held-out rows, and serve live queries between a batch's phase-1 prepare
// and its phase-2 apply (the reader/writer interleaving the epoch protocol
// permits). After ~30% churn the index compacts and the final recall@10 is
// measured against exact ground truth over the surviving rows, side by side
// with a from-scratch rebuild over the identical row set.
//
// scripts/check_recall.py gates the output JSON against the committed
// bench/churn_baseline.json: the rebuild variant must match exactly (it is
// the deterministic offline builder) and the churned variant may trail the
// same-run rebuild recall by at most the pinned epsilon. The JSON also
// carries an FNV-1a checksum of the churned graph bytes so CI can diff the
// files from ALGAS_BUILD_THREADS=1 and =4 runs — churn must be
// byte-identical across thread counts, exactly like the offline build.
//
// Knobs (environment, same semantics as the other benches):
//   ALGAS_SCALE      dataset size multiplier (CI gate uses 0.05)
//   ALGAS_QUERIES    queries served per wave and per final variant (CI: 40)
//   ALGAS_DATASETS   first listed name is the gate dataset (default sift)
//   ALGAS_CHURN_OUT  output JSON path (default "BENCH_churn.json")
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/mutable_index.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/registry.hpp"
#include "graph/builder.hpp"
#include "metrics/recall.hpp"

using namespace algas;

namespace {

/// The recall_gate configuration (Fig 10/11 comparison point, topk 10).
core::AlgasConfig gate_config() {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 128;
  cfg.search.beam_width = 4;
  cfg.search.offset_beam = 24;
  cfg.slots = 16;
  cfg.host_threads = 1;
  cfg.n_parallel = 4;
  cfg.host_sync = core::HostSync::kPollMirrored;
  return cfg;
}

constexpr std::size_t kTopk = 10;
constexpr std::size_t kWaves = 4;

/// FNV-1a 64 over the published graph + tombstones — the byte-identity
/// fingerprint CI compares across ALGAS_BUILD_THREADS values.
std::uint64_t index_checksum(const core::MutableIndex& idx) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  const Graph& g = idx.graph();
  mix(g.num_nodes());
  mix(g.degree());
  mix(static_cast<std::uint64_t>(g.entry_point()));
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) mix(static_cast<std::uint64_t>(u));
  }
  const auto dead = idx.tombstones().ids();
  mix(dead.size());
  for (NodeId v : dead) mix(static_cast<std::uint64_t>(v));
  return h;
}

/// Exact top-k over the published, non-tombstoned rows — the moving target
/// the per-wave live recall is graded against (the cached bench ground
/// truth covers the original row set, not the churned one).
std::vector<NodeId> live_topk(const core::MutableIndex& idx,
                              std::span<const float> query) {
  const Dataset& ds = idx.dataset();
  std::vector<std::pair<float, NodeId>> scored;
  scored.reserve(idx.live());
  for (NodeId v = 0; static_cast<std::size_t>(v) < idx.published(); ++v) {
    if (idx.tombstones().contains(v)) continue;
    scored.emplace_back(ds.score(query, v), v);
  }
  const std::size_t k = std::min(kTopk, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end());
  std::vector<NodeId> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = scored[i].second;
  return out;
}

double live_recall(const core::MutableIndex& idx,
                   const core::EngineReport& rep) {
  if (rep.collector.records().empty()) return 0.0;
  double sum = 0.0;
  for (const auto& rec : rep.collector.records()) {
    const auto truth =
        live_topk(idx, idx.dataset().query(rec.query_index));
    if (truth.empty()) continue;
    std::unordered_set<NodeId> truth_set(truth.begin(), truth.end());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < rec.results.size() && i < kTopk; ++i) {
      if (truth_set.count(rec.results[i].id())) ++hits;
    }
    sum += static_cast<double>(hits) / static_cast<double>(truth.size());
  }
  return sum / static_cast<double>(rep.collector.records().size());
}

struct WaveStat {
  std::size_t removed = 0;
  std::size_t inserted = 0;
  std::size_t live = 0;
  double recall = 0.0;
  double mean_latency_us = 0.0;
};

}  // namespace

int main() {
  const RuntimeOptions opts = RuntimeOptions::from_env();
  std::string raw = opts.datasets;
  if (raw.empty()) raw = "sift";
  const std::string ds_name = raw.substr(0, raw.find(','));

  BuildConfig build_cfg;  // bench_build_config() values: shared identity
  build_cfg.degree = 32;
  build_cfg.ef_construction = 64;

  const Dataset full = load_bench_dataset(ds_name);
  const std::size_t n = full.num_base();
  const std::size_t dim = full.dim();
  const std::size_t n_churn = n * 3 / 10;  // held-out rows to stream in
  const std::size_t n_keep = n - n_churn;  // initial serving set
  if (n_churn == 0 || n_keep == 0) {
    throw std::runtime_error("bench_churn: dataset too small to churn");
  }
  const std::size_t nq =
      std::min(opts.queries == 0 ? full.num_queries() : opts.queries,
               full.num_queries());

  // Start the index from the first 70% of the rows, streamed in through the
  // same batch path churn uses (an index streamed from empty in one insert
  // call is byte-identical to build_nsw over the same rows).
  Dataset serving(full.name() + "-churn", dim, full.metric());
  serving.mutable_queries() = full.queries();
  core::MutableIndex idx(std::move(serving), build_cfg);
  idx.insert({full.base().data(), n_keep * dim});

  // Deletion schedule: n_churn distinct original ids, Fisher-Yates order
  // from the deterministic RNG (part of the bench's identity — CI compares
  // runs, so the schedule must not depend on anything ambient).
  std::vector<NodeId> victims(n_keep);
  for (std::size_t i = 0; i < n_keep; ++i) victims[i] = static_cast<NodeId>(i);
  Rng rng(splitmix64(build_cfg.seed ^ 0xc0ffee));
  for (std::size_t i = n_keep - 1; i > 0; --i) {
    std::swap(victims[i], victims[rng.next_below(i + 1)]);
  }
  victims.resize(n_churn);

  std::printf("%s: n=%zu keep=%zu churn=%zu queries=%zu\n", ds_name.c_str(),
              n, n_keep, n_churn, nq);

  // Four churn waves: tombstone a slice, stage a slice, serve live queries
  // between a batch's prepare (phase 1) and apply (phase 2), then drain.
  std::vector<WaveStat> waves;
  std::size_t del_done = 0, ins_done = 0;
  for (std::size_t w = 0; w < kWaves; ++w) {
    const std::size_t del_end =
        (w + 1 == kWaves) ? n_churn : n_churn * (w + 1) / kWaves;
    const std::size_t ins_end = del_end;  // symmetric schedule

    WaveStat stat;
    for (; del_done < del_end; ++del_done) {
      if (idx.remove(victims[del_done])) ++stat.removed;
    }
    const std::size_t row0 = (n_keep + ins_done) * dim;
    const std::size_t rows = (ins_end - ins_done) * dim;
    idx.stage({full.base().data() + row0, rows});
    ins_done = ins_end;

    bool served = false;
    while (idx.pending() > 0) {
      core::StagedBatch batch = idx.prepare_next();
      if (!served) {
        // Live queries against the frozen prefix while the batch sits
        // between its two phases — the serving window churn never closes.
        const auto rep = idx.serve(gate_config(), nq);
        stat.recall = live_recall(idx, rep);
        stat.mean_latency_us = rep.summary.mean_service_us;
        served = true;
      }
      stat.inserted += idx.apply(batch).inserted;
    }
    stat.live = idx.live();
    waves.push_back(stat);
    std::printf("wave %zu: removed %zu inserted %zu live %zu | live "
                "recall@10 %.6f | latency mean %.1fus\n",
                w, stat.removed, stat.inserted, stat.live, stat.recall,
                stat.mean_latency_us);
  }

  const auto creport = idx.compact();
  const std::uint64_t checksum = index_checksum(idx);
  std::printf("compact: dropped %zu survivors %zu patched %zu | checksum "
              "%016llx\n",
              creport.dropped, creport.survivors, creport.patched,
              static_cast<unsigned long long>(checksum));

  // Grade the compacted index and a from-scratch rebuild over the identical
  // surviving rows against exact ground truth. The index's own dataset
  // carries no ground truth (appends dropped it), so recall is computed
  // externally against a gt-attached copy of the same rows.
  Dataset final_ds = idx.dataset();
  compute_ground_truth(final_ds, kTopk);

  const auto churn_rep = idx.serve(gate_config(), nq);
  const double churn_recall =
      metrics::served_recall(final_ds, churn_rep.collector, kTopk);

  const Graph rebuilt =
      build_graph(GraphKind::kNsw, final_ds, build_cfg).graph;
  core::AlgasEngine rebuild_engine(final_ds, rebuilt, gate_config());
  const auto rebuild_rep = rebuild_engine.run_closed_loop(nq);

  std::printf("churned: recall@10 %.6f | rebuild: recall@10 %.6f\n",
              churn_recall, rebuild_rep.recall);

  const std::string out_path = opts.churn_out;
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out.setf(std::ios::fixed);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  out << "{\n"
      << "  \"bench\": \"bench_churn\",\n"
      << "  \"dataset\": \"" << ds_name << "\",\n"
      << "  \"n_base\": " << final_ds.num_base() << ",\n"
      << "  \"dim\": " << dim << ",\n"
      << "  \"queries\": " << nq << ",\n"
      << "  \"topk\": " << kTopk << ",\n"
      << "  \"candidate_len\": 128,\n"
      << "  \"inserted\": " << n_churn << ",\n"
      << "  \"removed\": " << n_churn << ",\n"
      << "  \"compact_patched\": " << creport.patched << ",\n"
      << "  \"graph_checksum\": \"" << hex << "\",\n"
      << "  \"waves\": [\n";
  out.precision(10);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    out << "    {\"removed\": " << waves[w].removed
        << ", \"inserted\": " << waves[w].inserted
        << ", \"live\": " << waves[w].live
        << ", \"recall_at_10\": " << waves[w].recall << "}"
        << (w + 1 < waves.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"variants\": {\n"
      << "    \"rebuild\": {\n"
      << "      \"recall_at_10\": " << rebuild_rep.recall << ",\n"
      << "      \"mean_latency_us\": " << rebuild_rep.summary.mean_service_us
      << "\n    },\n"
      << "    \"churned\": {\n"
      << "      \"recall_at_10\": " << churn_recall << ",\n"
      << "      \"mean_latency_us\": " << churn_rep.summary.mean_service_us
      << "\n    }\n"
      << "  },\n  \"end\": true\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
