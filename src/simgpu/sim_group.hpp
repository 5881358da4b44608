// Deterministic coordination of several Simulations on one virtual clock.
//
// The sharded engine instantiates one Simulation per device shard plus one
// for the host-side scatter-gather stage. A group steps whichever member
// has the earliest live event, one event at a time, so the interleaving is
// a pure function of the members' event times: global time order, ties
// broken by member insertion order (then each member's own seq order).
// That makes a K-shard run exactly as reproducible as a single Simulation
// — and a group of one member is step-for-step identical to
// Simulation::run().
//
// Cross-member scheduling is legal: an actor stepped in member A may
// schedule an actor that lives in member B (e.g. a shard's host worker
// waking the gather stage). The target's clock never runs ahead of the
// global clock, so the scheduled time is always in the target's future and
// per-member timestamps stay causally consistent.
#pragma once

#include <vector>

namespace algas::sim {

class Simulation;

class SimulationGroup {
 public:
  /// Register a member (not owned). Insertion order is the deterministic
  /// tie-break for events at equal virtual time.
  void add(Simulation* sim) { members_.push_back(sim); }

  /// Run members' events in global time order until every queue drains,
  /// then signal each member's checker drain hook in insertion order
  /// (matching what Simulation::run() does for a lone simulation).
  void run();

 private:
  std::vector<Simulation*> members_;
};

}  // namespace algas::sim
