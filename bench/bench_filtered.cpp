// bench_filtered — the filtered-search recall gate.
//
// Sweeps predicate selectivity over four tiers (0.1%, 1%, 10%, 50% of the
// base rows accepted, timestamp-threshold bitsets with exact row counts)
// and grades two strategies against predicate-restricted exact ground
// truth:
//
//   graph       filter-during-search: the ALGAS engine with the predicate
//               wired into SearchConfig::accept. Rejected rows still ROUTE
//               (the traversal crosses them) but never surface; the engine
//               widens candidate_len by ~1/selectivity (capped 8x, see
//               search::widen_for_selectivity) so survivors fill the TopK.
//   postfilter  the classic IVF baseline: fetch an oversized unfiltered
//               TopK (k/selectivity, capped), drop rejected rows, keep 10.
//               At low selectivity the fetch cap starves it — the effect
//               the paper's graph-side filtering avoids.
//
// The JSON also carries an FNV-1a checksum over the attribute arrays, over
// the null-predicate variant's full result lists and over each graph
// tier's. scripts/check_bench.py runs the bench at ALGAS_BENCH_HOSTS=1 and
// =4 and requires every checksum and every variant's recall to match
// across the two runs (latencies may differ): filtered search must not
// depend on host thread count, and a null predicate must reproduce the
// unfiltered engine bit for bit. The bench
// exits nonzero unless graph >= postfilter recall at one tier or more.
//
// Knobs (environment, same semantics as the other benches):
//   ALGAS_SCALE          dataset size multiplier (CI gate uses 0.05)
//   ALGAS_QUERIES        queries per variant (CI: 40)
//   ALGAS_DATASETS       first listed name is the gate dataset
//   ALGAS_BENCH_OUT      output JSON path (default "BENCH_filtered.json")
//   ALGAS_BENCH_HOSTS    host worker threads in the engine (default 1)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/ivf.hpp"
#include "bench_common.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/registry.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"
#include "metrics/recall.hpp"
#include "search/accept.hpp"

using namespace algas;

namespace {

constexpr std::size_t kTopk = 10;
constexpr double kTiers[] = {0.001, 0.01, 0.1, 0.5};
const char* kTierNames[] = {"0.1pct", "1pct", "10pct", "50pct"};

std::uint64_t attribute_checksum(const Dataset& ds) {
  bench::Fnv f;
  f.mix(ds.num_base());
  for (const std::uint32_t c : ds.categories()) f.mix(c);
  for (const std::uint32_t t : ds.timestamps()) f.mix(t);
  return f.h;
}

/// Fingerprint of every served result list: (query, id, distance bits),
/// canonicalized by query index — the collector stores completion order,
/// which legitimately varies with host thread count, while each query's
/// RESULTS must not. The checksum doubles as a byte-identity pin for the
/// null-predicate path against the pre-filter engine.
std::uint64_t results_checksum(const metrics::Collector& col) {
  bench::Fnv f;
  for (const auto* rec : bench::by_query_index(col)) {
    f.mix(rec->query_index);
    for (const KV& kv : rec->results) {
      f.mix(kv.id());
      f.mix(std::bit_cast<std::uint32_t>(kv.dist));
    }
  }
  return f.h;
}

/// Bitset accepting exactly `want` rows: the `want` smallest (timestamp,
/// id) pairs. Ties break by id, so the accepted set — and everything
/// downstream — is a pure function of the attribute arrays.
NodeBitset timestamp_tier(const Dataset& ds, std::size_t want) {
  const auto& ts = ds.timestamps();
  std::vector<std::pair<std::uint32_t, NodeId>> order(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    order[i] = {ts[i], static_cast<NodeId>(i)};
  }
  std::sort(order.begin(), order.end());
  NodeBitset bits(ds.num_base());
  for (std::size_t i = 0; i < want && i < order.size(); ++i) {
    bits.set(order[i].second);
  }
  return bits;
}

struct TierResult {
  std::size_t accepted = 0;
  double graph_recall = 0.0;
  double graph_latency_us = 0.0;
  std::size_t widened_len = 0;
  std::uint64_t results_checksum = 0;  ///< the graph variant's result lists
  double postfilter_recall = 0.0;
  std::size_t postfilter_fetch = 0;
  double postfilter_scanned = 0.0;  ///< mean rows exhaustively scored
};

}  // namespace

int main() {
  const std::size_t hosts = RuntimeOptions::from_env().bench_hosts;
  const std::string ds_name = bench::selected_datasets().front();

  Dataset ds = load_bench_dataset(ds_name);
  // Cached dataset files may predate attributes; (re)attach explicitly.
  // Stateless per-row generation means this agrees with what a fresh
  // generator run would have attached.
  attach_synthetic_attributes(ds);
  const std::size_t n = ds.num_base();
  const std::size_t nq = bench::query_budget(ds, ds.num_queries());
  const Graph g =
      build_graph(GraphKind::kNsw, ds, bench::bench_build_config()).graph;
  // The recall_gate configuration (topk 10) at this run's host count.
  core::AlgasConfig gate_cfg = bench::algas_config(16, 128, kTopk);
  gate_cfg.host_threads = hosts;

  baselines::IvfBuildConfig ivf_cfg;  // nlist 0 = sqrt(n) heuristic
  const baselines::IvfIndex ivf = baselines::IvfIndex::build(ds, ivf_cfg);
  constexpr std::size_t kNprobe = 8;
  constexpr std::size_t kFetchCap = 4096;

  std::printf("%s: n=%zu queries=%zu hosts=%zu | ivf nlist=%zu\n",
              ds_name.c_str(), n, nq, hosts, ivf.nlist());

  // Null-predicate reference: the unfiltered engine, recall against the
  // cached exact ground truth, full result lists checksummed. This is the
  // byte-identity pin — it must match the pre-filter engine exactly.
  const auto null_rep = core::AlgasEngine(ds, g, gate_cfg).run_closed_loop(nq);
  const std::uint64_t null_checksum = results_checksum(null_rep.collector);
  std::printf("null: recall@10 %.6f | checksum %s\n", null_rep.recall,
              bench::hex64(null_checksum).c_str());

  const std::size_t n_tiers = std::size(kTiers);
  std::vector<TierResult> tiers(n_tiers);
  for (std::size_t t = 0; t < n_tiers; ++t) {
    TierResult& r = tiers[t];
    const auto want = std::max<std::size_t>(
        1, static_cast<std::size_t>(kTiers[t] * static_cast<double>(n) + 0.5));
    const NodeBitset bits = timestamp_tier(ds, want);
    const search::AcceptPredicate accept(&bits);
    r.accepted = bits.count();

    const auto gt = compute_filtered_ground_truth(ds, kTopk, accept);

    core::AlgasConfig cfg = gate_cfg;
    cfg.search.accept = accept;
    core::AlgasEngine engine(ds, g, cfg);
    r.widened_len = engine.config().search.candidate_len;
    const auto rep = engine.run_closed_loop(nq);
    r.graph_recall = metrics::served_recall(gt, rep.collector, kTopk);
    r.graph_latency_us = rep.summary.mean_service_us;
    r.results_checksum = results_checksum(rep.collector);

    // IVF post-filter: oversized unfiltered fetch, filter, keep 10. The
    // fetch budget is k/selectivity capped — past the cap the expected
    // accepted yield drops below k and recall collapses.
    r.postfilter_fetch = std::min(
        n, std::min(kFetchCap, kTopk * std::max<std::size_t>(
                                   1, n / std::max<std::size_t>(want, 1))));
    r.postfilter_fetch = std::max(r.postfilter_fetch, kTopk);
    std::size_t scanned_total = 0;
    double pf_total = 0.0;
    for (std::size_t q = 0; q < nq; ++q) {
      const auto out = ivf.search(ds, ds.query(q), kNprobe,
                                  r.postfilter_fetch);
      scanned_total += out.scanned;
      std::vector<KV> kept;
      kept.reserve(kTopk);
      for (const KV& kv : out.topk) {
        if (kv.is_empty() || kept.size() == kTopk) break;
        if (accept.accepts(kv.id())) kept.push_back(kv);
      }
      pf_total += metrics::recall_against({gt.data() + q * kTopk, kTopk},
                                          kept, kTopk);
    }
    r.postfilter_recall = pf_total / static_cast<double>(nq);
    r.postfilter_scanned =
        static_cast<double>(scanned_total) / static_cast<double>(nq);

    std::printf("tier %s: accepted %zu/%zu | graph recall@10 %.6f "
                "(L=%zu, %.1fus) | postfilter recall@10 %.6f (fetch %zu, "
                "scan %.0f)\n",
                kTierNames[t], r.accepted, n, r.graph_recall, r.widened_len,
                r.graph_latency_us, r.postfilter_recall, r.postfilter_fetch,
                r.postfilter_scanned);
  }

  std::size_t graph_wins = 0;
  for (const TierResult& r : tiers) {
    if (r.graph_recall >= r.postfilter_recall) ++graph_wins;
  }

  bench::JsonReport report("filtered");
  report.text("bench", "bench_filtered")
      .text("dataset", ds_name)
      .integer("n_base", n)
      .integer("dim", ds.dim())
      .integer("queries", nq)
      .integer("topk", kTopk)
      .integer("candidate_len", 128)
      .text("attr_checksum", bench::hex64(attribute_checksum(ds)))
      .text("null_results_checksum", bench::hex64(null_checksum))
      .integer("graph_wins", graph_wins)
      .object("variants")
      .object("null")
      .number("recall_at_10", null_rep.recall)
      .number("mean_latency_us", null_rep.summary.mean_service_us)
      .close();
  for (std::size_t t = 0; t < n_tiers; ++t) {
    const TierResult& r = tiers[t];
    report.object(std::string("graph_") + kTierNames[t])
        .number("recall_at_10", r.graph_recall)
        .integer("accepted", r.accepted)
        .integer("candidate_len", r.widened_len)
        .number("mean_latency_us", r.graph_latency_us)
        .text("results_checksum", bench::hex64(r.results_checksum))
        .close()
        .object(std::string("postfilter_") + kTierNames[t])
        .number("recall_at_10", r.postfilter_recall)
        .integer("fetch", r.postfilter_fetch)
        .number("mean_scanned", r.postfilter_scanned)
        .close();
  }
  report.close().write(std::cout);

  if (graph_wins == 0) {
    std::fprintf(stderr,
                 "bench_filtered: FAILED — filter-during-search beat the "
                 "IVF post-filter at 0 of %zu tiers\n",
                 n_tiers);
    return 1;
  }
  std::printf("graph >= postfilter at %zu/%zu tiers\n", graph_wins, n_tiers);
  return 0;
}
