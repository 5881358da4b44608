#include "simgpu/sim_group.hpp"

#include <limits>

#include "simgpu/simulation.hpp"

namespace algas::sim {

void SimulationGroup::run() {
  for (;;) {
    Simulation* next = nullptr;
    SimTime best = std::numeric_limits<SimTime>::infinity();
    // Strict < keeps the earliest-added member on time ties — the group's
    // deterministic tie-break, mirroring the per-simulation seq order.
    for (Simulation* s : members_) {
      const SimTime t = s->next_event_time();
      if (t < best) {
        best = t;
        next = s;
      }
    }
    if (next == nullptr) break;
    next->step_one();
  }
  // The drain signal is a whole-group property: a member that is
  // momentarily idle may still be woken by another member, so no member is
  // "drained" until all queues are.
  for (Simulation* s : members_) s->notify_drain();
}

}  // namespace algas::sim
