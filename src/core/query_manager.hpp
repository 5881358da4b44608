// Concurrent query manager (§V-B): the FIFO of submitted queries that host
// worker threads draw from, plus arrival-time bookkeeping for open-loop
// workloads. In the single-threaded simulation "concurrent" reduces to
// shared state; fairness across host workers comes from FIFO pops at each
// worker's virtual cursor.
//
// The serving layer extends the plain FIFO two ways, both inert unless a
// workload opts in:
//   * priority classes — pops prefer the highest class whose front has
//     arrived, FIFO within a class. Every query defaults to class 0, which
//     reduces to the original single FIFO.
//   * bounded admission — admit() enforces a queue capacity with a shed
//     policy (reject the newcomer, or drop the oldest lowest-priority
//     entry). push() stays the unbounded path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "common/ownership.hpp"
#include "common/types.hpp"

namespace algas::sim {
class SimCheck;
}  // namespace algas::sim

namespace algas::core {

/// Number of distinct priority classes (0 = best effort .. kPriorityClasses
/// - 1 = most urgent). Pushed priorities clamp into this range.
constexpr std::size_t kPriorityClasses = 4;

/// Queue capacity sentinel: no admission bound (the pre-serving default).
constexpr std::size_t kUnboundedQueue = std::numeric_limits<std::size_t>::max();

struct PendingQuery {
  std::size_t query_index = 0;
  SimTime arrival_ns = 0.0;
  /// Absolute completion deadline; infinity = no deadline (default). A
  /// query not delivered by this virtual instant counts as a deadline miss,
  /// and the scheduler sheds it from the queue / evicts its finished slot
  /// instead of paying fetch+merge for an answer nobody is waiting on.
  SimTime deadline_ns = std::numeric_limits<SimTime>::infinity();
  /// Priority class (clamped to kPriorityClasses - 1; higher pops first).
  std::uint8_t priority = 0;
};

/// What happens when admit() finds the bounded queue full.
enum class ShedPolicy : std::uint8_t {
  kRejectNew = 0,  ///< shed the arriving query
  kDropOldest,     ///< shed the oldest entry of the lowest queued class
                   ///< (<= the newcomer's class); else reject the newcomer
};

const char* shed_policy_name(ShedPolicy p);

/// Admission-control knobs for the host queue.
struct AdmissionConfig {
  std::size_t capacity = kUnboundedQueue;  ///< max queued (arrived) queries
  ShedPolicy policy = ShedPolicy::kRejectNew;

  bool bounded() const { return capacity != kUnboundedQueue; }
};

class QueryManager {
 public:
  /// `check` (optional, not owned) audits queue hygiene: nondecreasing
  /// arrival order on push, and that pops never return a not-yet-arrived
  /// query. Violations fail fast with the queue's event trace.
  explicit QueryManager(sim::SimCheck* check = nullptr) : check_(check) {}

  /// Arrivals must be pushed in nondecreasing arrival order.
  void push(PendingQuery q);

  /// Bounded push: if the queue is at `adm.capacity`, apply the shed
  /// policy and return the query that was shed (the newcomer, or a lower-
  /// priority victim evicted to make room). nullopt = admitted cleanly.
  std::optional<PendingQuery> admit(PendingQuery q,
                                    const AdmissionConfig& adm);

  /// Pop the oldest query of the highest priority class whose arrival time
  /// has passed. Deadlines are NOT consulted here — the caller decides
  /// whether an expired pop is shed (and charges the virtual cost of doing
  /// so).
  std::optional<PendingQuery> pop_ready(SimTime now);

  /// Earliest arrival still pending, or infinity when empty.
  SimTime next_arrival() const;

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

 private:
  sim::SimCheck* check_;
  /// Per-class FIFOs shared by every host worker; all mutation funnels
  /// through push/admit/pop_ready so fairness stays a property of the
  /// virtual cursors. Class 0 is the historical single FIFO. The engine's
  /// AdmissionActor joins QueryManager in the owner list: it is the arrival
  /// side of the serving path and mutates the queue only through admit().
  std::array<std::deque<PendingQuery>, kPriorityClasses> classes_
      ALGAS_OWNED_BY(QueryManager, AdmissionActor);
  std::size_t size_ ALGAS_OWNED_BY(QueryManager, AdmissionActor) = 0;
  SimTime last_arrival_ ALGAS_OWNED_BY(QueryManager, AdmissionActor) = 0.0;
};

}  // namespace algas::core
