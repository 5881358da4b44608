// Fig 18 — host-side parallel processing (§V-B) and the state-copy
// optimization (§V-A): throughput with host threads in {1, 2, 4}, with and
// without GDRCopy-style local state mirrors, at batch 32 where a single
// host thread struggles. Low-dimensional datasets (SIFT) benefit most.
//
// The JSON report (ALGAS_BENCH_OUT, default BENCH_fig18_host_parallel.json)
// holds the §V-A claim as checks: for each dataset and host-thread count,
// both modes' throughput and state-poll transactions, whether mirrored
// polling issues no poll transactions and whether it beats naive polling's
// throughput. bench/mirroring_baseline.json gates the flags at the golden
// figures' scale. The TSV on stdout is unchanged.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

int main() {
  bench::print_header("fig18_host_parallel",
                      "Fig 18: host threads x state mirroring");

  metrics::TsvTable table({"dataset", "host_threads", "state_mirroring",
                           "recall", "mean_latency_us", "throughput_qps",
                           "state_poll_txns"});

  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kList = 128;

  bench::JsonReport report("fig18_host_parallel");
  report.text("bench", "bench_fig18_host_parallel")
      .integer("batch", kBatch)
      .integer("candidate_len", kList)
      .object("datasets");

  for (const auto& name : bench::selected_datasets()) {
    const Dataset& ds = bench::dataset(name);
    const Graph& g = bench::graph(name, GraphKind::kCagra);
    const std::size_t nq = bench::query_budget(ds, 200);
    report.object(name)
        .integer("n_base", ds.num_base())
        .integer("dim", ds.dim())
        .integer("queries", nq);

    for (std::size_t hosts : {1, 2, 4}) {
      core::EngineReport naive;
      for (bool mirrored : {false, true}) {
        auto cfg = bench::algas_config(kBatch, kList, 16, 2);
        cfg.host_threads = hosts;
        cfg.host_sync = mirrored ? core::HostSync::kPollMirrored : core::HostSync::kPollNaive;
        core::AlgasEngine engine(ds, g, cfg);
        auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(hosts)
            .cell(std::string(mirrored ? "on" : "off"))
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0)
            .cell(rep.pcie_state_poll_transactions);
        if (!mirrored) {
          naive = std::move(rep);
          continue;
        }
        std::string key = "hosts";
        key += std::to_string(hosts);
        report.object(key)
            .number("naive_throughput_qps", naive.summary.throughput_qps)
            .integer("naive_poll_transactions",
                     naive.pcie_state_poll_transactions)
            .number("mirrored_throughput_qps", rep.summary.throughput_qps)
            .integer("mirrored_poll_transactions",
                     rep.pcie_state_poll_transactions)
            .boolean("mirrored_no_poll_transactions",
                     rep.pcie_state_poll_transactions == 0)
            .boolean("mirrored_throughput_above_naive",
                     rep.summary.throughput_qps >
                         naive.summary.throughput_qps)
            .close();
      }
    }
    report.close();  // dataset
  }
  report.close().write(std::cerr);

  std::cout << "# expected: more host threads help, mirroring helps, "
               "low-dim datasets gain most\n";
  table.print(std::cout);
  return 0;
}
