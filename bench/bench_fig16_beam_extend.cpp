// Fig 16 — beam extend vs greedy extend with 8 CTAs in parallel:
// throughput-recall curves per dataset. Beam extend wins at high recall
// (large candidate lists) where the diffusing phase dominates.
//
// The JSON report (ALGAS_BENCH_OUT, default BENCH_fig16_beam_extend.json)
// holds that claim as checks: for each dataset and L = 256 and 512, both
// modes' recall and throughput, and whether beam extend's throughput is at
// least greedy extend's. bench/beam_baseline.json gates the flags at the
// golden figures' scale. The TSV on stdout is unchanged.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

int main() {
  bench::print_header("fig16_beam_extend",
                      "Fig 16: beam vs greedy extend, 8 CTAs");

  metrics::TsvTable table({"dataset", "mode", "candidate_len", "recall",
                           "mean_latency_us", "throughput_qps"});

  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kCtas = 8;  // the paper's Fig 16 setting
  constexpr std::size_t kClaimMinLen = 256;

  bench::JsonReport report("fig16_beam_extend");
  report.text("bench", "bench_fig16_beam_extend")
      .integer("batch", kBatch)
      .integer("ctas", kCtas)
      .object("datasets");

  for (const auto& name : bench::selected_datasets()) {
    const Dataset& ds = bench::dataset(name);
    const Graph& g = bench::graph(name, GraphKind::kCagra);
    const std::size_t nq = bench::query_budget(ds, 200);
    report.object(name)
        .integer("n_base", ds.num_base())
        .integer("dim", ds.dim())
        .integer("queries", nq);

    for (std::size_t L : {128, 256, 512}) {
      core::EngineReport greedy;
      for (bool beam : {false, true}) {
        auto cfg = bench::algas_config(kBatch, L, 16, kCtas,
                                       beam ? 4 : 1);
        core::AlgasEngine engine(ds, g, cfg);
        auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(std::string(beam ? "BeamExtend" : "GreedyExtend"))
            .cell(L)
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0);
        if (!beam) {
          greedy = std::move(rep);
        } else if (L >= kClaimMinLen) {
          std::string key = "L";
          key += std::to_string(L);
          report.object(key)
              .number("greedy_recall", greedy.recall)
              .number("greedy_throughput_qps",
                      greedy.summary.throughput_qps)
              .number("beam_recall", rep.recall)
              .number("beam_throughput_qps", rep.summary.throughput_qps)
              .boolean("beam_throughput_at_least_greedy",
                       rep.summary.throughput_qps >=
                           greedy.summary.throughput_qps)
              .close();
        }
      }
    }
    report.close();  // dataset
  }
  report.close().write(std::cerr);

  std::cout << "# expected: beam extend wins at high recall (large L)\n";
  table.print(std::cout);
  return 0;
}
