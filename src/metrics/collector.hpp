// Per-query measurement records and run-level aggregation: latency
// distributions, throughput, GPU bubble waste, and the compute/sort time
// split — the quantities behind Figs 2, 3, 10-17.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "search/intra_cta.hpp"
#include "search/kv.hpp"

namespace algas::metrics {

/// Terminal outcome of one query under the serving layer. Every arrival
/// produces exactly one record with exactly one disposition; the closed-
/// loop benches only ever produce kServed, which keeps their accounting
/// byte-identical to the pre-serving collector.
enum class Disposition : std::uint8_t {
  kServed = 0,    ///< merged results delivered to the caller
  kShedQueue,     ///< rejected by admission control (bounded queue full)
  kShedDeadline,  ///< expired in the host queue before dispatch
  kEvicted,       ///< finished on the device past deadline; results dropped
};

struct QueryRecord {
  /// Sentinel for `slot`: the query never occupied a slot (it was shed at
  /// admission or expired in the host queue before dispatch).
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  std::size_t query_index = 0;
  /// Slot (dynamic), batch index (static), or shard fanout (sharded merge);
  /// kNoSlot when the query was shed before ever occupying one.
  std::size_t slot = 0;
  SimTime arrival_ns = 0.0;   ///< when the query entered the system
  SimTime dispatch_ns = 0.0;  ///< when a slot/batch picked it up
  SimTime gpu_done_ns = 0.0;  ///< when the query's last CTA finished
  SimTime done_ns = 0.0;      ///< when delivered (or shed/evicted)
  /// Absolute deadline carried from the arrival; infinity = none.
  SimTime deadline_ns = std::numeric_limits<SimTime>::infinity();
  std::uint8_t priority = 0;  ///< admission priority class
  Disposition disposition = Disposition::kServed;
  std::size_t steps = 0;      ///< expanded points (paper's step count)
  std::size_t rounds = 0;     ///< maintenance rounds (sorts)
  std::size_t scored_points = 0;  ///< distance evaluations (all CTAs)
  search::StepCost gpu_cost;  ///< summed across the query's CTAs
  std::vector<KV> results;    ///< empty unless disposition == kServed

  SimTime latency_ns() const { return done_ns - arrival_ns; }
  SimTime service_ns() const { return done_ns - dispatch_ns; }
  bool served() const { return disposition == Disposition::kServed; }
  /// Goodput criterion: delivered by the deadline (an infinite deadline is
  /// always met; a shed/evicted query never is).
  bool in_deadline() const { return served() && done_ns <= deadline_ns; }
};

struct RunSummary {
  std::size_t queries = 0;        ///< all records (served + shed + evicted)
  double span_ns = 0.0;           ///< first arrival -> last completion
  /// Served queries per second of span. Equal to queries/span on closed
  /// loops (everything serves); under overload only completed work counts.
  double throughput_qps = 0.0;
  // --- Serving-layer outcome accounting (all zero on closed loops) -------
  std::size_t served = 0;         ///< disposition kServed
  std::size_t shed_queue = 0;     ///< rejected by admission control
  std::size_t shed_deadline = 0;  ///< expired in queue before dispatch
  std::size_t evicted = 0;        ///< finished past deadline, dropped
  std::size_t deadline_misses = 0;  ///< finite-deadline queries not met
  double goodput_qps = 0.0;       ///< in-deadline completions per second
  double shed_rate = 0.0;         ///< (queries - served) / queries
  double deadline_miss_rate = 0.0;  ///< deadline_misses / queries
  /// End-to-end latency (arrival -> completion; includes queueing) over
  /// SERVED queries only — a shed query has no completion to measure.
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  /// Service latency (dispatch -> completion). Closed-loop benches report
  /// this — it is what the paper's per-query latency figures measure, free
  /// of the artificial queueing a submit-everything-at-t0 workload adds.
  double mean_service_us = 0.0;
  double p50_service_us = 0.0;
  double p95_service_us = 0.0;
  double p99_service_us = 0.0;
  double p999_service_us = 0.0;
  double mean_steps = 0.0;
  double max_steps = 0.0;
  /// Fraction of summed GPU search time spent in sorting (Fig 3 / Fig 17).
  double sort_fraction = 0.0;
  double compute_fraction = 0.0;
  /// Batch-bubble waste: idle CTA-time while waiting for the batch's
  /// slowest query, as a fraction of active CTA-time (§III-A's
  /// 22.9%-33.7%). Zero unless the engine reports batch idle time.
  double bubble_waste = 0.0;
};

class Collector {
 public:
  void add(QueryRecord rec);
  void add_batch_idle(double idle_ns, double active_ns);

  /// Combine another collector into this one: records are appended in the
  /// other's insertion order and the batch idle/active accumulators are
  /// summed. Exact by construction — summarize() over a merged collector
  /// equals summarize() over the union of the samples — so per-shard
  /// collectors aggregate without re-sampling.
  void merge(const Collector& other);

  std::size_t size() const { return records_.size(); }
  const std::vector<QueryRecord>& records() const { return records_; }

  RunSummary summarize() const;

  /// Sorted per-query end-to-end latencies (arrival -> completion) in
  /// microseconds. Note: despite the name this used to return *service*
  /// latencies; it now matches QueryRecord::latency_ns().
  std::vector<double> sorted_latencies_us() const;

  /// Sorted per-query service latencies (dispatch -> completion) in
  /// microseconds (Fig 13's series).
  std::vector<double> sorted_service_us() const;

  void clear();

 private:
  std::vector<QueryRecord> records_;
  double batch_idle_ns_ = 0.0;
  double batch_active_ns_ = 0.0;
};

}  // namespace algas::metrics
