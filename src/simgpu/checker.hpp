// SimCheck — always-compilable, toggleable verification layer for the
// simulated-GPU substrate.
//
// Every result this repository reports rests on the substrate faithfully
// enforcing the paper's protocols. SimCheck makes those protocols *checked*
// instead of assumed: it observes schedule/step traffic on the event queue,
// audits shared-memory budgets at block launch, and hosts the per-actor
// ring-buffer event traces that higher layers (core::ProtocolChecker)
// append state-machine history to. The first violation fails fast with a
// SimCheckError whose what() carries the offending actor's trace dump.
//
// SimCheck never charges virtual time — it is a pure observer, so enabling
// it cannot perturb any measured latency. A null checker pointer is the
// zero-cost disabled path (one branch per hook site).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "simgpu/device_props.hpp"
#include "simgpu/shared_memory.hpp"

namespace algas::sim {

class Actor;

/// Thrown on the first violation (fail fast). what() carries the full
/// report, including the offending actor's ring-buffer event trace.
class SimCheckError : public std::logic_error {
 public:
  SimCheckError(std::string kind, const std::string& report)
      : std::logic_error(report), kind_(std::move(kind)) {}
  /// Short machine-checkable violation class, e.g. "ownership",
  /// "channel-conservation", "shared-memory-budget", "deadlock".
  const std::string& kind() const { return kind_; }

 private:
  std::string kind_;
};

/// One traced event of one actor.
struct TraceEvent {
  SimTime t = 0.0;
  std::string what;
};

/// Fixed-capacity ring of the most recent events of one actor.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void push(SimTime t, std::string what) {
    if (events_.size() == capacity_) events_.pop_front();
    events_.push_back(TraceEvent{t, std::move(what)});
    ++total_;
  }

  const std::deque<TraceEvent>& events() const { return events_; }
  std::uint64_t total_recorded() const { return total_; }

 private:
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::deque<TraceEvent> events_;
};

class SimCheck {
 public:
  // ---- trace & violation machinery ------------------------------------
  /// Append one event to `actor`'s ring buffer.
  void record(const std::string& actor, SimTime t, std::string what);

  /// Build a violation report (message + `actor`'s trace dump, when
  /// non-empty) and throw SimCheckError. Never returns.
  [[noreturn]] void fail(const std::string& kind, const std::string& actor,
                         SimTime t, const std::string& message) const;

  /// The last events of one actor (its ring buffer), one per line.
  std::string trace_dump(const std::string& actor) const;

  /// Count one invariant evaluation (kept so tests can assert the checker
  /// actually looked at a run rather than silently no-opping).
  void count_check() { ++checks_; }
  std::uint64_t checks_performed() const { return checks_; }
  std::uint64_t events_traced() const { return traced_; }
  std::uint64_t violations() const { return violations_; }

  /// Reset per-run state (traces, counters, drain hook) so one checker can
  /// audit many engine runs back to back.
  void begin_run(const std::string& label);
  const std::string& run_label() const { return run_label_; }

  // ---- Simulation hooks (event-queue hygiene) -------------------------
  /// Called by Simulation::schedule before clamping. Flags wake-up
  /// requests in the past beyond the documented clamp tolerance.
  void on_schedule(const Actor* a, const char* name, SimTime now,
                   SimTime requested);
  /// Called by the run loop as each event is popped. Flags virtual-time
  /// regression and traces the step into the actor's ring.
  void on_event(const Actor* a, const char* name, SimTime now,
                SimTime event_time);
  /// Called when the event queue drains.
  /// Invokes the registered drain hook, if any.
  void on_drain(SimTime now);
  void set_drain_hook(std::function<void(SimTime)> hook) {
    drain_hook_ = std::move(hook);
  }

  // ---- shared-memory budget (§IV-C) -----------------------------------
  /// Verify one launched block: its layout must pass the occupancy check
  /// at the tuned residency AND fit the tuner's per-block budget.
  void check_block_launch(const std::string& actor, SimTime t,
                          const DeviceProps& dev,
                          const SharedMemoryLayout& layout,
                          std::size_t blocks_per_sm,
                          std::size_t reserved_per_block,
                          std::size_t budget_bytes);

 private:
  /// Stable deterministic key for an actor pointer: "<name>#<ordinal>".
  const std::string& actor_key(const Actor* a, const char* name);

  std::string run_label_;
  std::map<std::string, TraceRing> traces_;
  // Diagnostics use the deterministic "<name>#<ordinal>" value instead.
  // lint: pointer-key lookup-only (find/emplace/clear), never iterated
  std::map<const Actor*, std::string> actor_keys_;
  std::map<std::string, std::size_t> name_ordinals_;
  std::function<void(SimTime)> drain_hook_;
  std::uint64_t checks_ = 0;
  std::uint64_t traced_ = 0;
  mutable std::uint64_t violations_ = 0;
};

/// True when engines should run checked even without an explicit checker:
/// the ALGAS_SIMCHECK CMake option sets the compiled default, overridable
/// at runtime via the ALGAS_SIMCHECK environment variable (1/on / 0/off).
bool simcheck_default_enabled();

}  // namespace algas::sim
