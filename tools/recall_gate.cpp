// recall_gate — the quantized-storage precision gate.
//
// Quantized scoring (f16/int8 rows) is deliberately NOT bitwise-equal to
// the f32 seed, so the usual byte-identity tests cannot protect it. This
// binary measures what the codecs actually cost: it runs the Fig 10/11
// ALGAS configuration (batch 16, L 128, 4 CTAs, beam extend) once per
// storage codec on the same dataset + ground truth and reports recall@10
// per codec as JSON. scripts/check_bench.py compares that JSON against
// the committed bench/recall_baseline.json and fails when f32 drifts at
// all or a quantized codec drops more than its pinned epsilon.
//
// Knobs (all environment, same semantics as the benches):
//   ALGAS_SCALE        dataset size multiplier (CI gate uses 0.05)
//   ALGAS_QUERIES      queries per codec run   (CI gate uses 40)
//   ALGAS_DATASETS     first listed name is the gate dataset (default sift)
//   ALGAS_CACHE_DIR    dataset/graph cache (graph keys are codec-suffixed)
//   ALGAS_BENCH_OUT    output JSON path (default "BENCH_recall.json")
//
// Ground truth is loaded/computed at f32 BEFORE quantizing, so recall
// measures the codec's loss against exact neighbors — quantizing first
// would grade the codec against itself.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "dataset/registry.hpp"
#include "graph/builder.hpp"

using namespace algas;

namespace {

struct CodecResult {
  StorageCodec codec = StorageCodec::kF32;
  double recall = 0.0;
  double mean_latency_us = 0.0;
  unsigned long long pcie_bytes = 0;
  std::size_t smem_per_block = 0;
};

}  // namespace

int main() {
  const std::string ds_name = bench::selected_datasets().front();

  const StorageCodec codecs[] = {StorageCodec::kF32, StorageCodec::kF16,
                                 StorageCodec::kInt8};
  std::vector<CodecResult> results;
  std::size_t n_base = 0, n_queries = 0, dim = 0;
  for (const StorageCodec codec : codecs) {
    // Fresh load per codec: ground truth comes from the f32 cache, then
    // the codec re-encodes the rows and the graph is built (or loaded from
    // its codec-suffixed cache entry) against the quantized scores.
    Dataset ds = load_bench_dataset(ds_name);
    ds.set_storage(codec);
    const Graph g =
        load_or_build_graph(GraphKind::kCagra, ds, bench::bench_build_config())
            .graph;
    // The Fig 10/11 comparison point with topk 10: recall@10, the paper's
    // headline.
    core::AlgasEngine engine(ds, g, bench::algas_config(16, 128, 10));
    const std::size_t nq = bench::query_budget(ds, ds.num_queries());
    const auto rep = engine.run_closed_loop(nq);

    CodecResult r;
    r.codec = codec;
    r.recall = rep.recall;
    r.mean_latency_us = rep.summary.mean_service_us;
    r.pcie_bytes = rep.pcie_bytes;
    r.smem_per_block = engine.layout().total_bytes();
    results.push_back(r);
    n_base = ds.num_base();
    n_queries = rep.summary.queries;
    dim = ds.dim();
    std::printf("%s: storage %-4s | recall@10 %.6f | latency mean %.1fus | "
                "smem/block %zuB | pcie %llu B\n",
                ds_name.c_str(), storage_codec_name(codec), r.recall,
                r.mean_latency_us, r.smem_per_block, r.pcie_bytes);
  }

  bench::JsonReport report("recall");
  report.text("bench", "recall_gate")
      .text("dataset", ds_name)
      .integer("n_base", n_base)
      .integer("dim", dim)
      .integer("queries", n_queries)
      .integer("topk", 10)
      .integer("candidate_len", 128)
      .object("codecs");
  for (const auto& r : results) {
    report.object(storage_codec_name(r.codec))
        .number("recall_at_10", r.recall)
        .number("mean_latency_us", r.mean_latency_us, 3)
        .integer("smem_per_block", r.smem_per_block)
        .integer("pcie_bytes", r.pcie_bytes)
        .close();
  }
  report.close().write(std::cout);
  return 0;
}
