// Deterministic discrete-event simulation core.
//
// Actors (CTAs, host worker threads, batch drivers, workload generators)
// self-schedule: inside step() an actor performs its next slice of work —
// executing the *real* algorithm functionally — computes that slice's
// virtual duration from the CostModel, and reschedules itself. Actors that
// wait on shared state either poll (reschedule at +poll_interval, exactly
// like the paper's polling design) or sleep until another actor wakes them
// via Simulation::schedule().
//
// At most one pending event per actor: schedule() coalesces, keeping the
// earliest requested wake-up. Ties in time break by insertion order, so runs
// are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"

namespace algas::sim {

class SimCheck;
class Simulation;

/// Base class for everything that consumes virtual time.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Perform the next slice of work at sim.now(); reschedule yourself via
  /// sim.schedule(this, when) or go dormant by not rescheduling.
  virtual void step(Simulation& sim) = 0;

  virtual const char* name() const { return "actor"; }

 private:
  friend class Simulation;
  /// Queue bookkeeping lives in the actor but belongs to the scheduler:
  /// only Simulation (schedule/pop) may touch these.
  std::uint64_t token_ ALGAS_OWNED_BY(Simulation) = 0;
  SimTime pending_time_ ALGAS_OWNED_BY(Simulation) = -1.0;  // < 0 = none
};

class Simulation {
 public:
  /// Schedule (or re-schedule) `a` to step at time `when`. If the actor
  /// already has an earlier pending event this is a no-op; a later pending
  /// event is superseded. `when` is clamped to now() — the past is not
  /// addressable.
  void schedule(Actor* a, SimTime when);

  SimTime now() const { return now_; }

  /// Run until the event queue drains.
  void run();

  /// Timestamp of the next live event, or +infinity when the queue is
  /// drained. Stale entries encountered at the head are discarded (and
  /// counted) exactly as run() would — peeking never changes which events
  /// execute. This is the coordination primitive SimulationGroup uses to
  /// interleave several simulations in global time order.
  SimTime next_event_time();

  /// Process exactly one live event (advancing now()). Returns false when
  /// the queue is drained. Unlike run(), does NOT signal the checker's
  /// drain hook — callers that interleave multiple simulations signal
  /// notify_drain() once the whole group is done.
  bool step_one();

  /// Tell the attached checker the run drained naturally (what run() does
  /// implicitly). SimulationGroup calls this per member after all members
  /// drain; a no-op without a checker.
  void notify_drain();

  std::uint64_t events_processed() const { return events_processed_; }
  /// Queue entries discarded because their actor was re-scheduled after
  /// they were pushed (token mismatch on pop). A high stale:processed
  /// ratio means actors churn their wake-ups.
  std::uint64_t stale_events() const { return stale_events_; }

  /// Attach a SimCheck verification layer (not owned; null disables — the
  /// unchecked path costs one branch per schedule/step). The checker
  /// observes scheduling hygiene and natural queue drains; it never
  /// advances or charges virtual time.
  void set_checker(SimCheck* check) { check_ = check; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Actor* actor;
    std::uint64_t token;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  bool pop_next(Event& ev);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t stale_events_ = 0;
  SimCheck* check_ = nullptr;
};

}  // namespace algas::sim
