#include "core/serving_engine.hpp"

#include <algorithm>
#include <limits>

namespace algas::core {

ServingEngine::ServingEngine(const Dataset& ds, ServingConfig cfg)
    : cfg_(std::move(cfg)), ds_(ds), sharded_(ds, cfg_.sharded) {
  // Construct-time validation of the arrival config (run() would hit the
  // same throw, but failing in the constructor keeps sweeps fail-fast).
  sim::ArrivalProcess probe(cfg_.arrival);
  (void)probe;
}

std::vector<PendingQuery> ServingEngine::plan_workload(
    const sim::ArrivalConfig& arrival, double deadline_us) const {
  std::size_t n = ds_.num_queries();
  if (cfg_.num_queries > 0) n = std::min(n, cfg_.num_queries);

  sim::ArrivalProcess proc(arrival);
  Rng mix(cfg_.mix_seed);
  const double deadline_ns =
      deadline_us > 0.0 ? deadline_us * 1000.0
                        : std::numeric_limits<double>::infinity();

  std::vector<PendingQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PendingQuery q;
    q.query_index = i;  // unique — required by the sharded gather
    q.arrival_ns = proc.next_arrival_ns();
    q.deadline_ns = q.arrival_ns + deadline_ns;
    if (cfg_.high_priority_fraction > 0.0 &&
        mix.next_double() < cfg_.high_priority_fraction) {
      q.priority = static_cast<std::uint8_t>(kPriorityClasses - 1);
    }
    out.push_back(q);
  }
  return out;
}

ServingReport ServingEngine::run(const sim::ArrivalConfig& arrival,
                                 double deadline_us) {
  ServingReport rep;
  rep.arrivals = plan_workload(arrival, deadline_us);
  rep.sharded = sharded_.run(rep.arrivals);
  if (!rep.arrivals.empty() && rep.arrivals.back().arrival_ns > 0.0) {
    rep.offered_qps = static_cast<double>(rep.arrivals.size()) * 1e9 /
                      rep.arrivals.back().arrival_ns;
  }
  return rep;
}

}  // namespace algas::core
