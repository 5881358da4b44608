// AlgasEngine — the paper's system (Fig 6): dynamic batching over slot state
// machines, a persistent kernel of multi-CTA searchers with beam extend, a
// host side that merges TopK and recycles slots, optional state mirroring,
// and adaptive tuning. Executes on the simulated GPU substrate; results are
// functionally real, timing is virtual.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/query_manager.hpp"
#include "core/tuner.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "metrics/collector.hpp"
#include "search/intra_cta.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/checker.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device_props.hpp"

namespace algas::sim {
class Simulation;
}  // namespace algas::sim

namespace algas::core {

/// How the host learns that a slot finished (§V-A).
enum class HostSync : std::uint8_t {
  kPollNaive = 0,   ///< host polls device-resident states across the channel
  kPollMirrored,    ///< GDRCopy-style local mirrors; polls are free of PCIe
  kBlocking,        ///< no polling: completion interrupts wake the host
};

const char* host_sync_name(HostSync s);

struct AlgasConfig {
  search::SearchConfig search;
  /// Number of slots — the dynamic batch size.
  std::size_t slots = 16;
  /// Host worker threads; each owns slots/host_threads slots with a private
  /// IO stream (§V-B).
  std::size_t host_threads = 1;
  /// CTAs per slot; 0 lets the adaptive tuner maximize it (§IV-C).
  std::size_t n_parallel = 0;
  /// §V-A synchronization scheme. The paper's choice is mirrored polling;
  /// naive polling and blocking exist for the ablations.
  HostSync host_sync = HostSync::kPollMirrored;
  sim::DeviceProps device = sim::DeviceProps::rtx_a6000();
  sim::CostModel cost;
  std::uint64_t seed = 1;
  /// Admission control for the host queue (serving layer). The default
  /// keeps the queue unbounded, which preserves the classic byte-identical
  /// path: arrivals are pre-loaded into the QueryManager at wiring time. A
  /// bounded capacity instead routes arrivals through an admission actor at
  /// their arrival instants, so occupancy is measured when each capacity
  /// decision is made; queries shed by the policy produce a QueryRecord
  /// with a non-served disposition (goodput/shed-rate accounting) and the
  /// run still delivers exactly one record per arrival.
  AdmissionConfig admission;
  /// Optional SimCheck verification layer (not owned). Null means
  /// unchecked — unless the build (ALGAS_SIMCHECK CMake option) or the
  /// ALGAS_SIMCHECK environment variable turns checking on by default, in
  /// which case each run constructs a private checker. The checker never
  /// charges virtual time, so checked and unchecked runs produce identical
  /// latency/throughput numbers.
  sim::SimCheck* checker = nullptr;
  /// Optional SimTrace timeline sink (not owned). Null falls back to the
  /// process-wide ALGAS_TRACE tracer (sim::default_tracer()); null there
  /// too means untraced. Like the checker, tracing never charges virtual
  /// time — traced and untraced runs are bit-identical in every measured
  /// quantity, including sim_events and the bench TSV.
  sim::Tracer* tracer = nullptr;
};

/// Number of 64-bit visited-bitmap words one CTA clears at start of query:
/// the ceil_div(num_base, 64)-word bitmap is split evenly across the
/// slot's n_parallel CTAs (§IV-B step 1).
std::size_t visited_clear_words(std::size_t num_base, std::size_t n_parallel);

/// Work counters of one engine run. Each is a plain total, so the reports
/// of several runs (the shards of a sharded run) aggregate with +=.
struct EngineCounters {
  std::uint64_t pcie_transactions = 0;
  std::uint64_t pcie_state_transactions = 0;       ///< polls + write-throughs
  std::uint64_t pcie_state_poll_transactions = 0;  ///< naive-mode host polls
  std::uint64_t pcie_state_write_transactions = 0;
  std::uint64_t pcie_bytes = 0;
  std::uint64_t host_polls = 0;
  std::uint64_t interrupts = 0;  ///< completion interrupts (blocking mode)
  std::uint64_t host_worker_steps = 0;
  double host_busy_ns = 0.0;  ///< summed host-thread busy time
  /// Summed CTA busy time and CTA count behind gpu_utilization — kept so
  /// an aggregator (the sharded engine) can recompute utilization against
  /// a different span than this run's own.
  double cta_busy_ns = 0.0;
  std::size_t cta_count = 0;
  /// Events the simulation queue ran. Idle CTA polls are not among them:
  /// a parked CTA skips them (elided_polls), so sim_events + elided_polls
  /// is what a loop stepping every poll until the slot's wake would run.
  std::uint64_t sim_events = 0;
  /// Idle persistent-kernel CTA polls skipped by parking, up to the
  /// instant the slot's CTAs wake together. Each would have read an idle
  /// state and changed nothing (DESIGN.md, "Idle CTAs park").
  std::uint64_t elided_polls = 0;
  /// Queue entries the simulation popped and discarded because the actor
  /// was re-scheduled after they were pushed (token mismatch).
  std::uint64_t sim_stale_events = 0;
  /// Invariant evaluations performed by SimCheck (0 = run was unchecked).
  std::uint64_t simcheck_checks = 0;

  EngineCounters& operator+=(const EngineCounters& o) {
    pcie_transactions += o.pcie_transactions;
    pcie_state_transactions += o.pcie_state_transactions;
    pcie_state_poll_transactions += o.pcie_state_poll_transactions;
    pcie_state_write_transactions += o.pcie_state_write_transactions;
    pcie_bytes += o.pcie_bytes;
    host_polls += o.host_polls;
    interrupts += o.interrupts;
    host_worker_steps += o.host_worker_steps;
    host_busy_ns += o.host_busy_ns;
    cta_busy_ns += o.cta_busy_ns;
    cta_count += o.cta_count;
    sim_events += o.sim_events;
    elided_polls += o.elided_polls;
    sim_stale_events += o.sim_stale_events;
    simcheck_checks += o.simcheck_checks;
    return *this;
  }
};

/// Common result shape for all engines (ALGAS and baselines).
struct EngineReport : EngineCounters {
  metrics::Collector collector;
  metrics::RunSummary summary;
  /// Base-row storage codec the run scored against (f32/f16/int8).
  StorageCodec storage = StorageCodec::kF32;
  double recall = 0.0;            ///< mean recall@topk (if GT available)
  double gpu_utilization = 0.0;   ///< busy CTA-time / (CTAs x span)
  TunePlan plan;
  /// SimTrace events this run recorded (0 = run was untraced).
  std::uint64_t trace_events = 0;
};

class AlgasEngine;

/// Wiring hooks one engine run exposes to an orchestrator (the sharded
/// engine). The defaults leave the run fully self-contained —
/// AlgasEngine::run() uses them unchanged, so the default path stays
/// byte-identical to the pre-sharding engine.
struct RunAttach {
  /// Shared host-side bandwidth budget this run's channel contends on (not
  /// owned; null = uncontended single-device host).
  sim::HostBus* host_bus = nullptr;
  /// Appended to the checker/tracer run label (e.g. ":shard3") so per-shard
  /// processes stay distinguishable in traces and SimCheck dumps.
  std::string label_suffix;
  /// When set, each completed query's record is handed to this sink
  /// INSTEAD of the run's own collector (which then stays empty). Records
  /// carry shard-LOCAL result ids; the sharded gather maps them to global
  /// ids before the cross-shard merge. Invoked mid-step, at most once per
  /// query, in deterministic simulation order.
  std::function<void(metrics::QueryRecord&&)> deliver;
};

/// One wired engine run over the simulated device, split out of
/// AlgasEngine::run() so an orchestrator can construct several runs and
/// drive their Simulations on one clock (sim::SimulationGroup).
/// AlgasEngine::run() is exactly: EngineRun + Simulation::run() + finish().
class EngineRun {
 public:
  EngineRun(const AlgasEngine& engine,
            const std::vector<PendingQuery>& arrivals,
            RunAttach attach = {});
  ~EngineRun();
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  /// The run's event queue — schedule/step through a SimulationGroup, or
  /// call .run() directly for a self-contained run.
  sim::Simulation& simulation();

  /// Drain verification + report assembly. Call exactly once, after the
  /// simulation (or the group containing it) ran to completion. When a
  /// RunAttach::deliver sink was installed the report's collector is empty
  /// (records went to the sink) and recall/summary are left zeroed.
  EngineReport finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class AlgasEngine {
 public:
  /// Throws std::invalid_argument when the tuner cannot fit the
  /// configuration on the device.
  AlgasEngine(const Dataset& ds, const Graph& g, AlgasConfig cfg);

  const TunePlan& plan() const { return plan_; }
  const AlgasConfig& config() const { return cfg_; }
  /// The per-block shared-memory layout the tuner budgeted for.
  const sim::SharedMemoryLayout& layout() const { return layout_; }
  const Dataset& dataset() const { return ds_; }
  const Graph& graph() const { return g_; }

  /// Closed loop: the first `num_queries` dataset queries, all available at
  /// t=0 (capped at the dataset's query count).
  EngineReport run_closed_loop(std::size_t num_queries);

  /// Open loop with explicit arrival times (nondecreasing).
  EngineReport run(const std::vector<PendingQuery>& arrivals);

 private:
  friend class EngineRun;
  const Dataset& ds_;
  const Graph& g_;
  AlgasConfig cfg_;
  TunePlan plan_;
  sim::SharedMemoryLayout layout_;
};

}  // namespace algas::core
