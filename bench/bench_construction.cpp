// Graph construction study (substrate for the paper's "NSW-GANNS graph"):
// GANNS-style batched GPU construction vs one-CTA serial construction, per
// dataset — host wall time, modeled (virtual) build time, speedup, batches,
// and the quality of the resulting index (recall at a fixed search setting).
//
// Both times come from the one BuildReport of a single build, so the wall
// and virtual columns always describe the same graph (the old bench timed
// only virtual time and could not show host-side construction throughput).
//
// Besides the TSV on stdout it writes a JsonReport (ALGAS_BENCH_OUT, default
// BENCH_construction.json) for the construction gate in
// bench/construction_baseline.json.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "dataset/registry.hpp"
#include "metrics/recall.hpp"
#include "search/multi_cta.hpp"

using namespace algas;

int main() {
  bench::print_header("construction",
                      "GANNS-style batched GPU construction vs serial");

  metrics::TsvTable table({"dataset", "insert_batch", "batches", "wall_ms",
                           "insertions_per_s", "gpu_build_ms",
                           "serial_build_ms", "speedup", "recall_at_64"});

  const sim::CostModel cm;
  const BuildConfig base_cfg = bench::bench_build_config();
  bench::JsonReport report("construction");
  report.text("bench", "bench_construction")
      .integer("degree", base_cfg.degree)
      .integer("ef_construction", base_cfg.ef_construction)
      .object("datasets");
  for (const auto& name : bench::selected_datasets()) {
    // Construction is rebuilt per configuration (no cache), so cap the
    // corpus at 20k points to keep the sweep tractable.
    const Dataset ds =
        load_bench_dataset_sized(name, 20000, 100, 32, /*use_cache=*/true);
    const std::size_t nq = std::min<std::size_t>(100, ds.num_queries());
    report.object(name)
        .integer("n_base", ds.num_base())
        .integer("dim", ds.dim())
        .integer("queries", nq)
        .object("insert_batch");

    for (std::size_t batch : {512, 4096}) {
      BuildConfig cfg = base_cfg;
      cfg.insert_batch = batch;
      const BuildReport result = build_graph(GraphKind::kNsw, ds, cfg);

      search::SearchConfig scfg;
      scfg.topk = 16;
      scfg.candidate_len = 64;
      double recall = 0.0;
      for (std::size_t q = 0; q < nq; ++q) {
        const auto r = search::multi_cta_search(ds, result.graph, cm, scfg,
                                                4, ds.query(q), q, 1);
        recall += metrics::recall_at_k(ds, q, r.topk, 16);
      }

      const double wall_s = result.wall_build_s;
      const double ips =
          wall_s > 0.0 ? static_cast<double>(ds.num_base()) / wall_s : 0.0;
      table.row()
          .cell(name)
          .cell(batch)
          .cell(result.batches)
          .cell(wall_s * 1e3, 2)
          .cell(ips, 0)
          .cell(result.virtual_build_ns / 1e6, 2)
          .cell(result.serial_build_ns / 1e6, 2)
          .cell(result.speedup(), 1)
          .cell(recall / static_cast<double>(nq), 4);
      report.object(std::to_string(batch))
          .integer("batches", result.batches)
          .number("gpu_build_ms", result.virtual_build_ns / 1e6)
          .number("serial_build_ms", result.serial_build_ns / 1e6)
          .number("speedup", result.speedup())
          .number("recall_at_64", recall / static_cast<double>(nq))
          .number("wall_ms", wall_s * 1e3, 4)
          .number("insertions_per_s", ips, 4)
          .close();
    }
    report.close().close();
  }

  std::cout << "# expected: speedup near the device's concurrent-CTA "
               "capacity; quality flat across batch sizes\n";
  table.print(std::cout);
  // The log line goes to stderr: stdout stays the TSV.
  report.close().write(std::cerr);
  return 0;
}
