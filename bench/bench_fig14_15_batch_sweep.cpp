// Figs 14 & 15 — throughput and latency vs batch size at fixed recall
// (fixed candidate list). ALGAS vs CAGRA vs GANNS. The paper reports ALGAS
// +18.8%-145.9% throughput and -17.7%-61.8% latency vs CAGRA across batch
// sizes.
#include <iostream>

#include "baselines/static_engine.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

int main() {
  bench::print_header("fig14_15_batch_sweep",
                      "Figs 14+15: throughput & latency vs batch size");

  metrics::TsvTable table({"dataset", "batch", "method", "recall",
                           "mean_latency_us", "throughput_qps"});

  constexpr std::size_t kList = 128;
  constexpr std::size_t kTopk = 16;

  for (const auto& name : bench::selected_datasets()) {
    const Dataset& ds = bench::dataset(name);
    const Graph& g = bench::graph(name, GraphKind::kCagra);
    const std::size_t nq = bench::query_budget(ds, 200);

    for (std::size_t batch : {1, 4, 16, 64}) {
      {
        // Keep total CTA pressure sane as slots grow: the tuner would do
        // this too, but pin the small-batch value the paper tunes to.
        const std::size_t n_parallel = batch <= 16 ? 4 : 2;
        core::AlgasEngine engine(
            ds, g, bench::algas_config(batch, kList, kTopk, n_parallel));
        const auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(batch)
            .cell(std::string("ALGAS"))
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0);
      }
      {
        baselines::StaticConfig cfg;
        cfg.search.topk = kTopk;
        cfg.search.candidate_len = kList;
        cfg.batch_size = batch;
        cfg.n_parallel = batch <= 16 ? 4 : 2;
        baselines::StaticBatchEngine engine(ds, g, cfg);
        const auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(batch)
            .cell(std::string("CAGRA"))
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0);
      }
      {
        baselines::StaticConfig cfg;
        cfg.search.topk = kTopk;
        cfg.search.candidate_len = kList;
        cfg.batch_size = batch;
        baselines::StaticBatchEngine engine(ds, g,
                                            baselines::ganns_config(cfg));
        const auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(batch)
            .cell(std::string("GANNS"))
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0);
      }
    }
  }

  std::cout << "# paper claim: vs CAGRA, ALGAS throughput +18.8%-145.9%, "
               "latency -17.7%-61.8%\n";
  table.print(std::cout);
  return 0;
}
