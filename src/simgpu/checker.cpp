#include "simgpu/checker.hpp"

#include <sstream>

#include "common/env.hpp"

namespace algas::sim {

namespace {
/// Ring-buffer entries kept per traced actor / state word.
constexpr std::size_t kTraceCapacity = 32;
/// Simulation::schedule() clamps past targets to now(); requesting a
/// wake-up further in the past than this tolerance is a violation (a
/// cost-accounting bug, not the documented clamp).
constexpr double kSchedulePastToleranceNs = 1e-6;
}  // namespace

void SimCheck::record(const std::string& actor, SimTime t, std::string what) {
  auto it = traces_.find(actor);
  if (it == traces_.end()) {
    it = traces_.emplace(actor, TraceRing(kTraceCapacity)).first;
  }
  it->second.push(t, std::move(what));
  ++traced_;
}

void SimCheck::fail(const std::string& kind, const std::string& actor,
                    SimTime t, const std::string& message) const {
  ++violations_;
  std::ostringstream out;
  out << "SimCheck violation [" << kind << "]";
  if (!run_label_.empty()) out << " in run '" << run_label_ << "'";
  out << " at t=" << t << "ns: " << message;
  if (!actor.empty()) {
    out << "\n" << trace_dump(actor);
  }
  throw SimCheckError(kind, out.str());
}

std::string SimCheck::trace_dump(const std::string& actor) const {
  std::ostringstream out;
  const auto it = traces_.find(actor);
  if (it == traces_.end()) {
    out << "  (no recorded events for " << actor << ")";
    return out.str();
  }
  const auto& ring = it->second;
  out << "  last " << ring.events().size() << " of " << ring.total_recorded()
      << " events of " << actor << ":";
  for (const auto& ev : ring.events()) {
    out << "\n    t=" << ev.t << "ns  " << ev.what;
  }
  return out.str();
}

void SimCheck::begin_run(const std::string& label) {
  run_label_ = label;
  traces_.clear();
  actor_keys_.clear();
  name_ordinals_.clear();
  drain_hook_ = nullptr;
}

const std::string& SimCheck::actor_key(const Actor* a, const char* name) {
  auto it = actor_keys_.find(a);
  if (it == actor_keys_.end()) {
    std::ostringstream key;
    key << name << "#" << name_ordinals_[name]++;
    it = actor_keys_.emplace(a, key.str()).first;
  }
  return it->second;
}

void SimCheck::on_schedule(const Actor* a, const char* name, SimTime now,
                           SimTime requested) {
  ++checks_;
  if (requested + kSchedulePastToleranceNs < now) {
    const std::string& key = actor_key(a, name);
    std::ostringstream msg;
    msg << key << " requested a wake-up at t=" << requested << "ns, "
        << (now - requested) << "ns in the past (beyond the documented "
        << "clamp tolerance of " << kSchedulePastToleranceNs << "ns)";
    fail("schedule-in-past", key, now, msg.str());
  }
}

void SimCheck::on_event(const Actor* a, const char* name, SimTime now,
                        SimTime event_time) {
  ++checks_;
  const std::string& key = actor_key(a, name);
  if (event_time + kSchedulePastToleranceNs < now) {
    std::ostringstream msg;
    msg << "event queue regressed: popped " << key << " at t=" << event_time
        << "ns after virtual time already reached " << now << "ns";
    fail("time-regression", key, now, msg.str());
  }
  record(key, event_time, "step");
}

void SimCheck::on_drain(SimTime now) {
  ++checks_;
  if (drain_hook_) drain_hook_(now);
}

void SimCheck::check_block_launch(const std::string& actor, SimTime t,
                                  const DeviceProps& dev,
                                  const SharedMemoryLayout& layout,
                                  std::size_t blocks_per_sm,
                                  std::size_t reserved_per_block,
                                  std::size_t budget_bytes) {
  ++checks_;
  record(actor, t, "launch " + layout.describe());
  const OccupancyCheck occ =
      check_occupancy(dev, layout, blocks_per_sm, reserved_per_block);
  if (!occ.fits) {
    std::ostringstream msg;
    msg << actor << " launched with a layout that violates the §IV-C "
        << "occupancy constraint: " << occ.reason << " (" << layout.describe()
        << ")";
    fail("shared-memory-budget", actor, t, msg.str());
  }
  if (budget_bytes != 0 && layout.total_bytes() > budget_bytes) {
    std::ostringstream msg;
    msg << actor << " launched with " << layout.total_bytes()
        << "B of shared memory but the tuner budgeted only " << budget_bytes
        << "B per block (" << layout.describe() << ")";
    fail("shared-memory-budget", actor, t, msg.str());
  }
}

bool simcheck_default_enabled() {
#ifdef ALGAS_SIMCHECK_DEFAULT_ON
  constexpr bool kCompiledDefault = true;
#else
  constexpr bool kCompiledDefault = false;
#endif
  static const bool enabled = [] {
    const int v = RuntimeOptions::from_env().simcheck;
    return v < 0 ? kCompiledDefault : v != 0;
  }();
  return enabled;
}

}  // namespace algas::sim
