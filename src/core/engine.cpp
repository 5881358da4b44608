#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/ownership.hpp"
#include "common/thread_pool.hpp"
#include "core/protocol_checker.hpp"
#include "core/search_ahead.hpp"
#include "core/state_sync.hpp"
#include "metrics/recall.hpp"
#include "simgpu/simulation.hpp"
#include "simgpu/trace.hpp"

namespace algas::core {

const char* host_sync_name(HostSync s) {
  switch (s) {
    case HostSync::kPollNaive: return "poll-naive";
    case HostSync::kPollMirrored: return "poll-mirrored";
    case HostSync::kBlocking: return "blocking";
  }
  return "invalid";
}

namespace {

class CtaActor;

/// A query's trace span name, "q<index>". Built by appending: GCC 12 at
/// -O3 flags the inlined `"q" + std::string&&` with a false -Wrestrict.
std::string query_span_name(std::size_t query_index) {
  std::string name = "q";
  name += std::to_string(query_index);
  return name;
}

/// Per-slot runtime shared between the slot's CTAs and its host worker —
/// the in-memory half of the Fig 9 single-writer matrix. Host-side fields
/// are owned by the slot's HostWorker outright; the completion bookkeeping
/// rotates between the CTAs (while the slot is in Work) and the host
/// (outside Work), with the slot state machine acting as the epoch.
struct SlotRuntime {
  bool busy ALGAS_OWNED_BY(HostWorker) = false;  // a query is in flight
  bool quit ALGAS_OWNED_BY(HostWorker) = false;  // slot retired
  std::size_t query_index ALGAS_OWNED_BY(HostWorker) = 0;
  SimTime arrival_ns ALGAS_OWNED_BY(HostWorker) = 0.0;
  SimTime dispatch_ns ALGAS_OWNED_BY(HostWorker) = 0.0;
  /// Absolute deadline of the in-flight query (infinity = none). Consulted
  /// by the host only — the persistent kernel never reads deadlines, so the
  /// device-side search is deadline-oblivious exactly like real ALGAS CTAs.
  SimTime deadline_ns ALGAS_OWNED_BY(HostWorker) =
      std::numeric_limits<SimTime>::infinity();
  std::uint8_t priority ALGAS_OWNED_BY(HostWorker) = 0;
  /// The in-flight query's finished search, taken at dispatch and dropped
  /// with its record: the CTAs' round charges, totals and merged TopK.
  search::MultiCtaResult searched ALGAS_OWNED_BY(HostWorker);
  // Completion bookkeeping (interrupt path + instrumentation).
  std::size_t finished_ctas ALGAS_GUARDED_BY_EPOCH(CtaActor, HostWorker) = 0;
  bool complete ALGAS_GUARDED_BY_EPOCH(CtaActor, HostWorker) = false;
  SimTime gpu_done_ns ALGAS_GUARDED_BY_EPOCH(CtaActor, HostWorker) = 0.0;
  std::uint64_t flow_id ALGAS_OWNED_BY(HostWorker) = 0;  // trace flow arrow
};

struct RunState;
class AdmissionActor;

/// EngineRun's input check, before anything runs: each arrival names one of
/// the dataset's queries, arrives at a finite instant no earlier than the
/// arrival before it, and has a deadline that is not NaN.
void check_arrivals(const Dataset& ds,
                    const std::vector<PendingQuery>& arrivals) {
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const PendingQuery& a = arrivals[i];
    std::string bad;
    if (a.query_index >= ds.num_queries()) {
      bad = "query index " + std::to_string(a.query_index) +
            " is past the dataset's " + std::to_string(ds.num_queries()) +
            " queries";
    } else if (!std::isfinite(a.arrival_ns)) {
      bad = "arrival instant is not finite";
    } else if (i > 0 && a.arrival_ns < arrivals[i - 1].arrival_ns) {
      bad = "arrives before the arrival before it (arrivals must be "
            "nondecreasing)";
    } else if (std::isnan(a.deadline_ns)) {
      bad = "deadline is NaN";
    }
    if (!bad.empty()) {
      throw std::invalid_argument("AlgasEngine: arrival " +
                                  std::to_string(i) + ": " + bad);
    }
  }
}

/// Builds the zero-results record for a query that never ran: the shed
/// instant stamps dispatch/gpu_done/done so service_ns is zero rather than
/// negative, and the disposition says which policy dropped it. It still
/// leaves through RunState::deliver — every arrival produces exactly one
/// record regardless of outcome.
metrics::QueryRecord shed_record(const PendingQuery& q, SimTime when,
                                 metrics::Disposition why) {
  metrics::QueryRecord rec;
  rec.query_index = q.query_index;
  rec.slot = metrics::QueryRecord::kNoSlot;  // never occupied one
  rec.arrival_ns = q.arrival_ns;
  rec.dispatch_ns = when;
  rec.gpu_done_ns = when;
  rec.done_ns = when;
  rec.deadline_ns = q.deadline_ns;
  rec.priority = q.priority;
  rec.disposition = why;
  return rec;
}

/// One persistent-kernel CTA: runs maintenance rounds while its slot is in
/// Work, pushes results and flags Finish, exits on Quit. Between queries it
/// is parked: every poll would read the same idle state until the host
/// writes Work or Quit, so the CTA records when it would poll next instead
/// of scheduling that poll, and RunState::write_slot wakes it.
class CtaActor final : public sim::Actor {
 public:
  /// Launched parked: `first_poll` is the instant of its launch poll.
  CtaActor(RunState& run, std::size_t slot, std::size_t cta,
           SimTime first_poll)
      : run_(run), slot_(slot), cta_(cta), next_poll_(first_poll) {}
  void step(sim::Simulation& sim) override;
  const char* name() const override { return "cta"; }
  double busy_ns() const { return busy_ns_; }
  /// The instant of the parked CTA's next poll.
  SimTime next_poll() const { return next_poll_; }

 private:
  RunState& run_;
  std::size_t slot_;
  std::size_t cta_;
  std::size_t round_ = 0;  ///< this query's events so far
  double busy_ns_ = 0.0;
  SimTime next_poll_ = 0.0;
};

/// The idle loop's recurrence: a CTA whose poll runs at `t` polls next at
/// (t + poll_local_ns) + cta_poll_interval_ns, summed left to right exactly
/// as CtaActor::step charges it.
SimTime next_idle_poll(const sim::CostModel& cm, SimTime t) {
  return t + cm.poll_local_ns + cm.cta_poll_interval_ns;
}

/// One engine run's trace wiring: lane ids under one process group.
struct TraceLanes {
  sim::Tracer* tracer = nullptr;  // null = untraced run
  int pid = 0;
  int slot_tid0 = 0;
  int cta_tid0 = 0;
  int host_tid0 = 0;
  int link_tid = 0;
};

/// One host worker thread: dispatches queries into its slots, polls their
/// states, fetches + merges results, retires slots when the workload drains.
class HostWorker final : public sim::Actor {
 public:
  HostWorker(RunState& run, std::size_t index,
             std::vector<std::size_t> my_slots)
      : run_(run), index_(index), my_slots_(std::move(my_slots)) {}
  void step(sim::Simulation& sim) override;
  const char* name() const override { return "host-worker"; }

 private:
  bool dispatch(sim::Simulation& sim, std::size_t slot, double* elapsed);
  void fetch_and_complete(sim::Simulation& sim, std::size_t slot,
                          double* elapsed);
  void evict_expired(sim::Simulation& sim, std::size_t slot, double* elapsed);
  void finish_slot(std::size_t slot, SimTime done_ns, metrics::Disposition why,
                   std::vector<KV> results);

  RunState& run_;
  std::size_t index_;  ///< worker ordinal (trace lane)
  std::vector<std::size_t> my_slots_;
  std::size_t cursor_ = 0;  ///< round-robin scan start (fairness)
};

/// All state of one engine run, wired together before Simulation::run().
struct RunState {
  RunState(const Dataset& ds_in, const Graph& g_in, const AlgasConfig& cfg_in,
           const TunePlan& plan_in, sim::SimCheck* check_in)
      : ds(ds_in),
        g(g_in),
        cfg(cfg_in),
        plan(plan_in),
        channel(cfg_in.cost),
        // Mirroring applies to the mirrored-polling mode only; blocking
        // keeps device states local (interrupts carry completion instead).
        sync(&channel, cfg_in.cost, cfg_in.slots, plan_in.n_parallel,
             cfg_in.host_sync == HostSync::kPollMirrored),
        qm(check_in),
        slots(cfg_in.slots),
        searchers(exec.threads() + 1) {
    run_len = search::normalize_config(cfg.search, g.degree()).candidate_len;
    clear_words = search::visited_clear_words(ds.num_base(), plan.n_parallel);
  }

  const Dataset& ds;
  const Graph& g;
  const AlgasConfig& cfg;
  const TunePlan& plan;

  sim::Simulation sim;
  sim::Channel channel;
  StateSync sync;
  QueryManager qm;
  metrics::Collector collector;
  std::vector<SlotRuntime> slots;
  /// Runs the searches ahead: ALGAS_BUILD_THREADS workers, or none, in
  /// which case the simulator thread runs each search at its take.
  BuildExecutor exec;
  /// One MultiCtaSearch per searching thread (SearchAhead's lanes), made on
  /// first use.
  std::vector<std::unique_ptr<search::MultiCtaSearch>> searchers;
  /// The arrivals' searches. Declared after what its tasks use, so its
  /// destructor waits for them before those go.
  std::unique_ptr<SearchAhead> ahead;
  std::vector<std::unique_ptr<CtaActor>> ctas;  // slot-major, CTA order
  std::vector<std::unique_ptr<HostWorker>> workers;
  std::vector<HostWorker*> worker_of_slot;  // interrupt routing (blocking)

  std::size_t run_len = 0;       // candidate list length L (normalized)
  std::size_t clear_words = 0;   // each CTA's share of the bitmap clear
  std::size_t total_queries = 0;
  /// Where deliver() hands records: RunAttach::deliver, or by default this
  /// run's own collector.
  std::function<void(metrics::QueryRecord&&)> sink;
  // Run-wide counters: each has exactly one writing actor class, so the
  // totals are exact without any aggregation step.
  std::size_t delivered ALGAS_OWNED_BY(RunState) = 0;
  std::uint64_t interrupts ALGAS_OWNED_BY(CtaActor) = 0;
  std::uint64_t worker_steps ALGAS_OWNED_BY(HostWorker) = 0;
  double worker_busy_ns ALGAS_OWNED_BY(HostWorker) = 0.0;
  TraceLanes trace;
  std::size_t in_flight ALGAS_OWNED_BY(HostWorker) = 0;  // dispatched, undelivered
  /// Idle CTA polls skipped by parking (EngineReport::elided_polls).
  std::uint64_t elided_polls ALGAS_OWNED_BY(RunState) = 0;
  /// Non-null iff the run has a bounded admission queue: arrivals then flow
  /// through the actor at their arrival instants instead of being
  /// pre-loaded, so workload exhaustion must also wait for it.
  AdmissionActor* admission = nullptr;

  /// The one host write path for slot states: moves all n_parallel words of
  /// `slot` to `next` at the current host step, and on Work or Quit — the
  /// states a parked CTA acts on — wakes all of the slot's CTAs together.
  void write_slot(std::size_t slot, SlotState next, double* elapsed);

  /// The one way a query's record leaves the run, whatever its outcome
  /// (served, evicted, shed at dispatch or at admission): hands it to the
  /// sink at its done_ns and counts it toward `delivered`.
  void deliver(metrics::QueryRecord&& rec);

  bool workload_exhausted() const;
  /// Earliest instant new work can appear: the queue's next arrival or the
  /// admission actor's next push, whichever is sooner. Workers sleeping on
  /// a dry queue wake here.
  SimTime next_arrival() const;
};

/// Serving front-end: feeds arrivals into the bounded host queue at their
/// arrival instants, so AdmissionConfig capacity decisions see the true
/// queue occupancy of that moment. Admission bookkeeping charges no virtual
/// time — it models a front-end off the host workers' critical path — and a
/// query the policy sheds becomes a zero-cost kShedQueue record at the
/// instant the decision is made, keeping the one-record-per-arrival
/// invariant. Only instantiated when cfg.admission is bounded; the default
/// unbounded path pre-loads the queue exactly as the pre-serving engine did
/// (byte-identical).
class AdmissionActor final : public sim::Actor {
 public:
  AdmissionActor(RunState& run, std::vector<PendingQuery> arrivals)
      : run_(run), arrivals_(std::move(arrivals)) {}

  void step(sim::Simulation& sim) override {
    while (cursor_ < arrivals_.size() &&
           arrivals_[cursor_].arrival_ns <= sim.now()) {
      const PendingQuery q = arrivals_[cursor_++];
      auto victim = run_.qm.admit(q, run_.cfg.admission);
      if (victim) {
        // kRejectNew returns the newcomer; kDropOldest returns the evicted
        // queue entry. Either way the victim's record is stamped now — the
        // instant the admission decision was made.
        run_.ahead->release(victim->query_index);
        run_.deliver(
            shed_record(*victim, sim.now(), metrics::Disposition::kShedQueue));
      }
    }
    if (cursor_ < arrivals_.size()) {
      sim.schedule(this, arrivals_[cursor_].arrival_ns);
    }
  }
  const char* name() const override { return "admission"; }

  bool exhausted() const { return cursor_ == arrivals_.size(); }
  SimTime next_push_ns() const {
    return exhausted() ? std::numeric_limits<SimTime>::infinity()
                       : arrivals_[cursor_].arrival_ns;
  }
  SimTime first_arrival_ns() const {
    return arrivals_.empty() ? 0.0 : arrivals_.front().arrival_ns;
  }

 private:
  RunState& run_;
  std::vector<PendingQuery> arrivals_;
  std::size_t cursor_ = 0;
};

bool RunState::workload_exhausted() const {
  return qm.empty() && (admission == nullptr || admission->exhausted());
}

void RunState::deliver(metrics::QueryRecord&& rec) {
  const SimTime done_ns = rec.done_ns;
  sink(std::move(rec));
  ++delivered;
  if (trace.tracer) {
    trace.tracer->counter(trace.pid, "delivered", done_ns,
                          static_cast<double>(delivered));
  }
}

SimTime RunState::next_arrival() const {
  SimTime t = qm.next_arrival();
  if (admission != nullptr) t = std::min(t, admission->next_push_ns());
  return t;
}

void CtaActor::step(sim::Simulation& sim) {
  const sim::CostModel& cm = run_.cfg.cost;
  double elapsed = 0.0;
  const SlotState st = run_.sync.device_read(sim.now(), slot_, cta_, &elapsed);

  switch (st) {
    case SlotState::kWork: {
      SlotRuntime& rt = run_.slots[slot_];
      // The query's search ran ahead (DESIGN.md, "Search ahead by query");
      // this event charges this CTA's next round of it. A CTA's first event
      // also charges the start of the query: loading it to shared memory,
      // clearing this CTA's share of the visited bitmap (§IV-B step 1) and
      // seeding the entry point.
      const std::size_t at = rt.searched.round_begin[cta_] + round_;
      search::charge_work(&elapsed, cm, round_ == 0, run_.clear_words,
                          rt.searched.round_ns[at]);
      ++round_;
      const bool done = at + 1 == rt.searched.round_begin[cta_ + 1];
      if (done) {
        // This CTA's sorted list goes into its stripe of the slot's
        // contiguous result block; charge the push, then flag Finish.
        elapsed += static_cast<double>(run_.run_len) *
                   cm.result_write_per_entry_ns;
        // Base time, not sim.now()+elapsed: StateSync advances by *elapsed
        // itself, and state write-throughs are control-plane posts whose
        // cost is independent of the issue instant, so the stamp choice
        // cannot move virtual time — it only keeps the checker's per-actor
        // happens-before timeline consistent.
        run_.sync.device_write(sim.now(), slot_, cta_,
                               SlotState::kFinish, &elapsed);
        if (++rt.finished_ctas == run_.plan.n_parallel) {
          rt.gpu_done_ns = sim.now() + elapsed;
          if (run_.cfg.host_sync == HostSync::kBlocking) {
            // Last CTA of the slot raises the completion interrupt.
            rt.complete = true;
            ++run_.interrupts;
            sim.schedule(run_.worker_of_slot[slot_],
                         sim.now() + elapsed +
                             run_.cfg.cost.interrupt_latency_ns);
          }
        }
        round_ = 0;
        // Park: every poll from here on reads an idle state until the host
        // writes Work or Quit, and write_slot wakes the slot's CTAs then.
        next_poll_ = sim.now() + elapsed;
      }
      busy_ns_ += elapsed;
      if (run_.trace.tracer) {
        sim::TraceArgs args;
        args.add("slot", static_cast<std::uint64_t>(slot_));
        args.add("query", static_cast<std::uint64_t>(rt.query_index));
        run_.trace.tracer->complete(
            run_.trace.pid,
            run_.trace.cta_tid0 +
                static_cast<int>(slot_ * run_.plan.n_parallel + cta_),
            query_span_name(rt.query_index), sim.now(), elapsed,
            std::move(args), "cta");
      }
      if (!done) sim.schedule(this, sim.now() + elapsed);
      return;
    }
    case SlotState::kQuit:
      return;  // persistent kernel thread exits; no reschedule
    case SlotState::kNone:
    case SlotState::kFinish:
    case SlotState::kDone:
    case SlotState::kExpired:
      // A CTA runs only while its slot is in Work, or once to read Quit:
      // it parks at launch and at its Finish write, and only write_slot's
      // Work or Quit write wakes it.
      throw std::logic_error("CTA s" + std::to_string(slot_) + " c" +
                             std::to_string(cta_) + " woke to state " +
                             slot_state_name(st));
  }
}

void RunState::write_slot(std::size_t slot, SlotState next,
                          double* elapsed) {
  for (std::size_t c = 0; c < plan.n_parallel; ++c) {
    sync.host_write(sim.now(), slot, c, next, elapsed);
  }
  if (next != SlotState::kWork && next != SlotState::kQuit) return;
  // Every CTA of the slot is parked: each parks at launch and at its Finish
  // write, and the host writes Work or Quit only to a slot whose CTAs have
  // all finished. They wake at one instant and run in CTA-index order
  // (DESIGN.md, "Idle CTAs park"): the earliest of their own next polls at
  // or after this step (a poll at the step's own instant reads the write),
  // but not before the last CTA parked. The DES flips a state word at the
  // start of the event that writes it, so the host can see a CTA's Finish
  // while that CTA's event still runs; it parks, and polls next, only when
  // the event ends.
  const std::size_t n = plan.n_parallel;
  SimTime wake = std::numeric_limits<SimTime>::infinity();
  SimTime last_park = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    // Each poll before the CTA's first one at or after this step was
    // skipped; walk the recurrence one poll at a time, as the CTA sums it.
    SimTime at = ctas[slot * n + c]->next_poll();
    last_park = std::max(last_park, at);
    while (at < sim.now()) {
      ++elided_polls;
      at = next_idle_poll(cfg.cost, at);
    }
    wake = std::min(wake, at);
  }
  wake = std::max(wake, last_park);
  for (std::size_t c = 0; c < n; ++c) {
    sim.schedule(ctas[slot * n + c].get(), wake);
  }
}

bool HostWorker::dispatch(sim::Simulation& sim, std::size_t slot,
                          double* elapsed) {
  const sim::CostModel& cm = run_.cfg.cost;
  auto q = run_.qm.pop_ready(sim.now() + *elapsed);
  // Deadline check at dispatch: a query already past its deadline is shed
  // instead of occupying a slot (strict <, so deadline == now still runs —
  // the caller could in principle still use it). Sheds are cheap
  // bookkeeping, so one step may clear a whole run of expired queue heads
  // before finding dispatchable work. The infinite default deadline makes
  // this loop a no-op on every pre-serving workload.
  while (q && q->deadline_ns < sim.now() + *elapsed) {
    *elapsed += cm.host_shed_ns;
    run_.ahead->release(q->query_index);
    run_.deliver(shed_record(*q, sim.now() + *elapsed,
                             metrics::Disposition::kShedDeadline));
    q = run_.qm.pop_ready(sim.now() + *elapsed);
  }
  if (!q) return false;
  SlotRuntime& rt = run_.slots[slot];
  rt.busy = true;
  rt.query_index = q->query_index;
  rt.arrival_ns = q->arrival_ns;
  rt.deadline_ns = q->deadline_ns;
  rt.priority = q->priority;
  rt.finished_ctas = 0;
  rt.complete = false;

  *elapsed += cm.host_dispatch_ns;
  // Query dispatch is a posted write into the slot's device buffer, at the
  // storage codec's element width (the device scores quantized rows).
  *elapsed += run_.channel.post(sim.now() + *elapsed,
                                run_.ds.dim() * run_.ds.elem_bytes(),
                                sim::Xfer::kQuery);
  rt.dispatch_ns = sim.now() + *elapsed;
  rt.searched = run_.ahead->take(q->query_index);
  run_.write_slot(slot, SlotState::kWork, elapsed);
  ++run_.in_flight;
  if (run_.trace.tracer) {
    auto& tr = *run_.trace.tracer;
    rt.flow_id = tr.new_flow_id();
    tr.flow_begin(run_.trace.pid,
                  run_.trace.host_tid0 + static_cast<int>(index_), "query",
                  rt.flow_id, rt.dispatch_ns);
    tr.counter(run_.trace.pid, "in-flight queries", rt.dispatch_ns,
               static_cast<double>(run_.in_flight));
  }
  return true;
}

void HostWorker::fetch_and_complete(sim::Simulation& sim, std::size_t slot,
                                    double* elapsed) {
  const sim::CostModel& cm = run_.cfg.cost;
  run_.write_slot(slot, SlotState::kDone, elapsed);
  // One sequential read of the slot's whole result block (§IV-B), issued
  // through this worker's private IO stream (§V-B).
  *elapsed += cm.host_io_submit_ns;
  *elapsed += run_.channel.transfer(
      sim.now() + *elapsed,
      run_.plan.n_parallel * run_.run_len * sim::kListEntryBytes,
      sim::Xfer::kResult);
  // Merge & filter on the host (§IV-B step 4). The searching thread ran
  // the merge with the search; the accept predicate was consulted there,
  // at the accept step: filtered and tombstoned ids routed the traversal
  // but never surface in the merged TopK.
  *elapsed += cm.host_topk_merge_ns(run_.plan.n_parallel, run_.cfg.search.topk);
  finish_slot(slot, sim.now() + *elapsed, metrics::Disposition::kServed,
              std::move(run_.slots[slot].searched.topk));
}

/// The Expired path of the Fig 5 extension: the slot finished its search
/// but the result is past deadline, so the host discards the block without
/// paying the fetch/merge the Done path would. States go Finish -> Expired
/// (then Work on refill or Quit on retire, both host-written); the device
/// work that DID happen (steps/rounds/scored/gpu_cost) stays on the record
/// so utilization accounting remains exact, but results stay empty — the
/// block never crosses the channel.
void HostWorker::evict_expired(sim::Simulation& sim, std::size_t slot,
                               double* elapsed) {
  run_.write_slot(slot, SlotState::kExpired, elapsed);
  *elapsed += run_.cfg.cost.host_evict_ns;
  finish_slot(slot, sim.now() + *elapsed, metrics::Disposition::kEvicted, {});
}

/// Ends the query in flight on `slot` at `done_ns`, served or evicted:
/// builds its record from the slot runtime, frees the slot, traces the
/// slot's occupancy and delivers the record.
void HostWorker::finish_slot(std::size_t slot, SimTime done_ns,
                             metrics::Disposition why,
                             std::vector<KV> results) {
  SlotRuntime& rt = run_.slots[slot];
  metrics::QueryRecord rec;
  rec.query_index = rt.query_index;
  rec.slot = slot;
  rec.arrival_ns = rt.arrival_ns;
  rec.dispatch_ns = rt.dispatch_ns;
  rec.gpu_done_ns = rt.gpu_done_ns;
  rec.done_ns = done_ns;
  // Deadline/priority travel on every record, served included: the eviction
  // check ran BEFORE the fetch/transfer/merge costs were charged, so a
  // served query can still land past a finite deadline — in_deadline() must
  // see the real deadline to count it as a miss.
  rec.deadline_ns = rt.deadline_ns;
  rec.priority = rt.priority;
  rec.disposition = why;
  // The device work that happened, served or evicted: the search's
  // per-CTA totals, summed in CTA order.
  const search::SearchStats& work = rt.searched.per_cta_total;
  rec.steps = work.expanded_points;
  rec.rounds = work.rounds;
  rec.scored_points = work.scored_points;
  rec.gpu_cost = work.cost;
  rec.results = std::move(results);
  rt.searched = {};
  --run_.in_flight;
  rt.busy = false;
  if (run_.trace.tracer) {
    auto& tr = *run_.trace.tracer;
    const int slot_tid = run_.trace.slot_tid0 + static_cast<int>(slot);
    sim::TraceArgs args;
    args.add("query", static_cast<std::uint64_t>(rt.query_index));
    args.add("steps", static_cast<std::uint64_t>(rec.steps));
    args.add("rounds", static_cast<std::uint64_t>(rec.rounds));
    // Slot occupancy: dispatch to delivery, one span per dispatched query.
    tr.complete(run_.trace.pid, slot_tid,
                query_span_name(rt.query_index) +
                    (rec.served() ? "" : " (evicted)"),
                rt.dispatch_ns, done_ns - rt.dispatch_ns, std::move(args),
                "slot");
    tr.flow_end(run_.trace.pid, slot_tid, "query", rt.flow_id, done_ns);
    tr.counter(run_.trace.pid, "in-flight queries", done_ns,
               static_cast<double>(run_.in_flight));
  }
  run_.deliver(std::move(rec));
}

void HostWorker::step(sim::Simulation& sim) {
  ++run_.worker_steps;
  const sim::CostModel& cm = run_.cfg.cost;
  const bool blocking = run_.cfg.host_sync == HostSync::kBlocking;
  double elapsed = cm.host_loop_ns;
  bool progress = false;

  // Scan from the rotating cursor and handle at most ONE completed or
  // dispatchable slot, then reschedule. A host thread is a serial resource:
  // bounding the work per step keeps virtual-time stamps accurate instead
  // of smearing a whole burst of completions onto one instant, and makes
  // the thread's saturation point (§V-B) an emergent measurement.
  const std::size_t n = my_slots_.size();
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = my_slots_[(cursor_ + i) % n];
    SlotRuntime& rt = run_.slots[slot];
    if (rt.quit) continue;

    if (rt.busy) {
      // Detect completion: interrupt flag (blocking) or state poll.
      bool finished;
      if (blocking) {
        finished = rt.complete;
        if (finished) elapsed += cm.blocking_wake_ns;
      } else {
        finished = run_.sync.host_all_in_state(sim.now(), slot,
                                               SlotState::kFinish, &elapsed);
      }
      if (!finished) continue;
      // Eviction happens at completion detection, never mid-search: the
      // persistent kernel cannot be preempted, so a deadline can only
      // deprioritize finished work (Finish -> Expired) rather than abort
      // running work. Strictly past-deadline only — finishing exactly at
      // the deadline still serves.
      if (rt.deadline_ns < sim.now() + elapsed) {
        evict_expired(sim, slot, &elapsed);
      } else {
        // Bring the states through the legal transitions even in blocking
        // mode (fetch_and_complete writes Finish -> Done).
        fetch_and_complete(sim, slot, &elapsed);
      }
      if (!dispatch(sim, slot, &elapsed) && run_.workload_exhausted()) {
        run_.write_slot(slot, SlotState::kQuit, &elapsed);
        rt.quit = true;
      }
      progress = true;
      advanced = i + 1;
      break;
    }

    // Idle slot: refill or retire. Retiring is cheap bookkeeping, so it
    // does not end the step.
    if (dispatch(sim, slot, &elapsed)) {
      progress = true;
      advanced = i + 1;
      break;
    }
    if (run_.workload_exhausted()) {
      run_.write_slot(slot, SlotState::kQuit, &elapsed);
      rt.quit = true;
    }
  }
  if (progress && n > 0) cursor_ = (cursor_ + advanced) % n;

  bool all_retired = true;
  for (std::size_t s : my_slots_) all_retired &= run_.slots[s].quit;

  run_.worker_busy_ns += elapsed;
  if (run_.trace.tracer) {
    run_.trace.tracer->complete(
        run_.trace.pid, run_.trace.host_tid0 + static_cast<int>(index_),
        progress ? "step" : "poll", sim.now(), elapsed, sim::TraceArgs{},
        "host");
  }
  if (all_retired) return;  // worker thread exits

  double next = sim.now() + elapsed;
  if (blocking) {
    // No periodic polling: sleep until a completion interrupt. Two wake-ups
    // must still be self-scheduled: (a) another completion is already
    // pending (interrupt deliveries coalesce and each step handles one),
    // (b) a future arrival needs a free slot.
    bool any_pending = false;
    bool any_free = false;
    for (std::size_t s : my_slots_) {
      const SlotRuntime& rt = run_.slots[s];
      any_pending |= rt.busy && rt.complete;
      any_free |= !rt.busy && !rt.quit;
    }
    const SimTime arrival = run_.next_arrival();
    if (any_pending || (any_free && std::isfinite(arrival))) {
      SimTime when = next;
      if (!any_pending && arrival > when) when = arrival;
      sim.schedule(this, when);
    }
    return;
  }
  if (!progress) {
    next += cm.host_poll_interval_ns;
    // All owned slots idle and queries still pending means the workload is
    // open-loop and dry right now: sleep until the next arrival.
    bool any_busy = false;
    for (std::size_t s : my_slots_) any_busy |= run_.slots[s].busy;
    if (!any_busy) {
      const SimTime arrival = run_.next_arrival();
      if (std::isfinite(arrival)) next = std::max(next, arrival);
    }
  }
  sim.schedule(this, next);
}

}  // namespace

AlgasEngine::AlgasEngine(const Dataset& ds, const Graph& g, AlgasConfig cfg)
    : ds_(ds), g_(g), cfg_(std::move(cfg)) {
  if (g.num_nodes() == 0) {
    // A slot must seed every CTA with an entry point; an empty graph has
    // none (entry_point() == kInvalidNode). Callers with an empty serving
    // view (core::MutableIndex before the first publish) skip the engine.
    throw std::invalid_argument("AlgasEngine: graph has no nodes to search");
  }
  // Selectivity-aware widening (filter-during-search): the rarer the
  // accepted set, the deeper the candidate list, so the accept step still
  // fills the TopK from survivors. Runs before normalization so the
  // widened length obeys the same clamps as any other config. A null
  // predicate's selectivity is 1.0, which leaves the config unchanged.
  cfg_.search = search::widen_for_selectivity(
      cfg_.search, cfg_.search.accept.selectivity(ds.num_base()));
  cfg_.search = search::normalize_config(cfg_.search, g.degree());
  cfg_.host_threads = std::max<std::size_t>(1, cfg_.host_threads);

  TuneInput in;
  in.device = cfg_.device;
  in.slots = cfg_.slots;
  in.requested_parallel = cfg_.n_parallel;
  in.layout = search::shared_memory_layout(cfg_.search, ds, g.degree());
  layout_ = in.layout;
  plan_ = tune(in);
  if (!plan_.ok) {
    throw std::invalid_argument("ALGAS tuning failed: " + plan_.reason);
  }
}

EngineReport AlgasEngine::run_closed_loop(std::size_t num_queries) {
  num_queries = std::min(num_queries, ds_.num_queries());
  std::vector<PendingQuery> arrivals;
  arrivals.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    arrivals.push_back({i, 0.0});
  }
  return run(arrivals);
}

/// The wiring formerly inlined in AlgasEngine::run(), held alive between
/// construction and finish() so an orchestrator can interleave several
/// runs' Simulations before collecting their reports. Every statement and
/// its order match the pre-split run() exactly — the default-attach path
/// is byte-identical.
struct EngineRun::Impl {
  const AlgasEngine& engine;
  sim::SimCheck* check = nullptr;
  std::unique_ptr<sim::SimCheck> owned_check;
  std::string run_label;
  std::unique_ptr<RunState> run;
  std::unique_ptr<sim::Actor> admission_owner;
  std::unique_ptr<ProtocolChecker> protocol;
  sim::Tracer* tracer = nullptr;
  std::uint64_t trace_events_before = 0;

  Impl(const AlgasEngine& e, const std::vector<PendingQuery>& arrivals,
       RunAttach attach)
      : engine(e) {
    const AlgasConfig& cfg = engine.cfg_;
    const Dataset& ds = engine.ds_;
    check_arrivals(ds, arrivals);

    // SimCheck wiring: an explicit checker from the config wins; otherwise
    // a private one is constructed when the build/environment default says
    // so. Null stays the zero-cost unchecked path.
    check = cfg.checker;
    if (check == nullptr && sim::simcheck_default_enabled()) {
      owned_check = std::make_unique<sim::SimCheck>();
      check = owned_check.get();
    }
    // Surface the storage codec in checker/trace process names; the f32
    // default keeps the historical label so existing traces stay identical.
    run_label = std::string("algas:") + host_sync_name(cfg.host_sync);
    if (ds.storage() != StorageCodec::kF32) {
      run_label += std::string(":") + storage_codec_name(ds.storage());
    }
    run_label += attach.label_suffix;
    if (check) check->begin_run(run_label);

    run = std::make_unique<RunState>(ds, engine.g_, cfg, engine.plan_, check);
    run->sink = std::move(attach.deliver);
    if (!run->sink) {
      run->sink = [collector = &run->collector](metrics::QueryRecord&& rec) {
        collector->add(std::move(rec));
      };
    }
    run->channel.set_host_bus(attach.host_bus);
    if (check) {
      run->sim.set_checker(check);
      protocol = std::make_unique<ProtocolChecker>(check, &run->sync,
                                                   &run->channel);
      protocol->expect_full_drain(true);
      run->sync.set_checker(protocol.get());
    }

    // SimTrace wiring mirrors SimCheck: explicit tracer wins, otherwise the
    // process-wide ALGAS_TRACE tracer, otherwise null (zero-cost untraced).
    tracer = cfg.tracer ? cfg.tracer : sim::default_tracer();
    if (tracer) {
      trace_events_before = tracer->events_recorded();
      TraceLanes& tl = run->trace;
      tl.tracer = tracer;
      tl.pid = tracer->begin_process(run_label);
      tl.link_tid = tracer->lane(tl.pid, "pcie link");
      const std::size_t n_workers =
          std::min(cfg.host_threads, std::max<std::size_t>(1, cfg.slots));
      for (std::size_t w = 0; w < n_workers; ++w) {
        const int tid = tracer->lane(tl.pid, "host " + std::to_string(w));
        if (w == 0) tl.host_tid0 = tid;
      }
      for (std::size_t s = 0; s < cfg.slots; ++s) {
        const int tid = tracer->lane(tl.pid, "slot " + std::to_string(s));
        if (s == 0) tl.slot_tid0 = tid;
      }
      for (std::size_t s = 0; s < cfg.slots; ++s) {
        for (std::size_t c = 0; c < engine.plan_.n_parallel; ++c) {
          const int tid = tracer->lane(tl.pid, "cta s" + std::to_string(s) +
                                                   ".c" + std::to_string(c));
          if (s == 0 && c == 0) tl.cta_tid0 = tid;
        }
      }
      run->channel.set_tracer(tracer, tl.pid, tl.link_tid);
      run->sync.set_tracer(tracer, tl.pid, tl.slot_tid0);
    }

    if (cfg.admission.bounded()) {
      // Serving mode: arrivals flow through an admission actor at their
      // arrival instants so capacity decisions see the queue occupancy of
      // that moment. The unbounded default pre-loads the queue — the exact
      // pre-serving wiring, byte-identical event sequence included.
      auto actor = std::make_unique<AdmissionActor>(*run, arrivals);
      AdmissionActor* raw = actor.get();
      run->admission = raw;
      admission_owner = std::move(actor);
      if (!arrivals.empty()) {
        run->sim.schedule(raw, raw->first_arrival_ns());
      }
    } else {
      for (const auto& a : arrivals) run->qm.push(a);
    }
    run->total_queries = arrivals.size();

    // Search ahead: the next `slots` arrivals' searches run on the build
    // executor while the DES replays the dispatched ones.
    std::vector<std::size_t> queries;
    queries.reserve(arrivals.size());
    for (const auto& a : arrivals) queries.push_back(a.query_index);
    RunState* rs = run.get();
    run->ahead = std::make_unique<SearchAhead>(
        std::move(queries), cfg.slots,
        [rs](std::size_t q, std::size_t lane) {
          auto& searcher = rs->searchers[lane];
          if (!searcher) {
            searcher = std::make_unique<search::MultiCtaSearch>(
                rs->ds, rs->g, rs->cfg.cost, rs->cfg.search,
                rs->plan.n_parallel, rs->cfg.seed);
          }
          return searcher->run(rs->ds.query(q), q);
        },
        run->exec);

    // Persistent kernel: one launch, then every CTA lives for the whole
    // run. Each launches parked, its first poll at the launch instant.
    const SimTime start = cfg.cost.kernel_launch_ns;
    for (std::size_t s = 0; s < cfg.slots; ++s) {
      for (std::size_t c = 0; c < engine.plan_.n_parallel; ++c) {
        run->ctas.push_back(std::make_unique<CtaActor>(*run, s, c, start));
        if (check) {
          // §IV-C budget: every launched block's layout must fit the tuned
          // per-block shared-memory allowance.
          std::ostringstream key;
          key << "cta s" << s << " c" << c;
          check->check_block_launch(key.str(), start, cfg.device,
                                    engine.layout_, engine.plan_.blocks_per_sm,
                                    engine.plan_.reserved_per_block,
                                    engine.plan_.avail_per_block);
        }
      }
    }

    // Host workers: slots round-robin across threads (§V-B).
    std::vector<std::vector<std::size_t>> owned(cfg.host_threads);
    for (std::size_t s = 0; s < cfg.slots; ++s) {
      owned[s % cfg.host_threads].push_back(s);
    }
    run->worker_of_slot.assign(cfg.slots, nullptr);
    for (auto& slots : owned) {
      if (slots.empty()) continue;
      auto worker =
          std::make_unique<HostWorker>(*run, run->workers.size(), slots);
      for (std::size_t s : slots) run->worker_of_slot[s] = worker.get();
      run->workers.push_back(std::move(worker));
      run->sim.schedule(run->workers.back().get(), 0.0);
    }
  }

  EngineReport finish() {
    const AlgasConfig& cfg = engine.cfg_;
    const Dataset& ds = engine.ds_;

    if (protocol) protocol->finalize(run->sim.now());

    if (run->delivered != run->total_queries) {
      throw std::logic_error("ALGAS run lost queries: delivered " +
                             std::to_string(run->delivered) + " of " +
                             std::to_string(run->total_queries));
    }

    EngineReport rep;
    rep.summary = run->collector.summarize();
    rep.storage = ds.storage();
    rep.plan = engine.plan_;
    rep.sim_events = run->sim.events_processed();
    rep.sim_stale_events = run->sim.stale_events();
    rep.elided_polls = run->elided_polls;
    if (check) {
      check->record("simulation", run->sim.now(),
                    "drained: events=" +
                        std::to_string(run->sim.events_processed()) +
                        " stale=" + std::to_string(run->sim.stale_events()) +
                        " elided=" + std::to_string(run->elided_polls));
    }
    rep.simcheck_checks = check ? check->checks_performed() : 0;
    if (tracer) {
      tracer->counter(run->trace.pid, "stale sim events", run->sim.now(),
                      static_cast<double>(run->sim.stale_events()));
    }
    rep.trace_events =
        tracer ? tracer->events_recorded() - trace_events_before : 0;
    // The process-wide tracer accumulates across runs: rewrite the file
    // after each so multi-engine benches end with every run in one Perfetto
    // file.
    if (tracer && tracer == sim::default_tracer()) {
      tracer->save(sim::trace_default_path());
    }
    rep.host_polls = run->sync.host_polls();
    rep.interrupts = run->interrupts;
    rep.host_worker_steps = run->worker_steps;
    rep.host_busy_ns = run->worker_busy_ns;
    const auto total = run->channel.total();
    rep.pcie_transactions = total.transactions;
    rep.pcie_bytes = total.bytes;
    rep.pcie_state_poll_transactions =
        run->channel.counters(sim::Xfer::kStatePoll).transactions;
    rep.pcie_state_write_transactions =
        run->channel.counters(sim::Xfer::kStateWrite).transactions;
    rep.pcie_state_transactions =
        rep.pcie_state_poll_transactions + rep.pcie_state_write_transactions;

    double busy = 0.0;
    for (const auto& cta : run->ctas) busy += cta->busy_ns();
    rep.cta_busy_ns = busy;
    rep.cta_count = run->ctas.size();
    const double span = rep.summary.span_ns;
    if (span > 0.0 && !run->ctas.empty()) {
      rep.gpu_utilization =
          busy / (span * static_cast<double>(run->ctas.size()));
    }

    if (ds.has_ground_truth()) {
      rep.recall = metrics::served_recall(ds, run->collector, cfg.search.topk);
    }
    rep.collector = std::move(run->collector);
    return rep;
  }
};

EngineRun::EngineRun(const AlgasEngine& engine,
                     const std::vector<PendingQuery>& arrivals,
                     RunAttach attach)
    : impl_(std::make_unique<Impl>(engine, arrivals, std::move(attach))) {}

EngineRun::~EngineRun() = default;

sim::Simulation& EngineRun::simulation() { return impl_->run->sim; }

EngineReport EngineRun::finish() { return impl_->finish(); }

EngineReport AlgasEngine::run(const std::vector<PendingQuery>& arrivals) {
  EngineRun r(*this, arrivals);
  r.simulation().run();
  return r.finish();
}

}  // namespace algas::core
