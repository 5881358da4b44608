// One slot's functional search, run as a job off the simulator thread
// (DESIGN.md, "Search rounds off the simulator thread").
//
// When the host writes Work to a slot, everything the query's search
// depends on is known: the query, its entry points, and for each CTA the
// absolute instant of its first Work event and its tie rank at that
// instant. The job runs the slot's n_parallel IntraCtaSearch instances in a
// query-local event loop in the simulation's order (time, then schedule
// order), so the CTAs claim nodes in the shared visited set exactly as the
// DES would interleave them, and publishes each round's cost as soon as it
// is computed. CtaActor::step keeps one event per round and charges the
// published cost; only the functional search moves off its thread.
//
// Threads: start() and next_round() run on the simulator thread. A posted
// task (work()) computes the rounds on a pool worker. When the simulator
// thread needs a round that is not published and no worker holds the job,
// it claims the job and computes that round itself; a worker that arrives
// later takes over from there. Whoever holds the job owns everything it
// writes; the hand-off is the release/acquire on the job's state word.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/node_set.hpp"
#include "common/ownership.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "search/intra_cta.hpp"
#include "simgpu/cost_model.hpp"

namespace algas::core {

/// Where a CTA of the slot starts the query. A job's starts are listed in
/// tie order: CTAs whose idle poll was still queued at the Work write (at
/// that poll's instant, in the order they scheduled it), then the parked
/// CTAs at their shared wake, in CTA order.
struct CtaStart {
  std::size_t cta = 0;
  SimTime at = 0.0;
};

/// One Work event of one CTA, as the job computed it.
struct SearchRound {
  search::StepCost cost;  ///< the round's cost; zero when !stepped
  std::uint32_t cta = 0;
  bool stepped = false;   ///< a round ran (false: the CTA ended at reset)
  bool done = false;      ///< the CTA's search ended at this event
};

/// A CTA's search totals, published with its last round.
struct CtaTotals {
  std::size_t expanded = 0;
  std::size_t rounds = 0;
  std::size_t scored = 0;
};

/// What a CTA's Work event charges after its state poll, added to *elapsed
/// left to right exactly as CtaActor::step adds it: the start-of-query
/// set-up on the CTA's first event (§IV-B step 1), then the round.
void charge_work(double* elapsed, const sim::CostModel& cm, bool first,
                 std::size_t clear_words, const SearchRound& round);

/// One slot's search, reused for every query the slot serves; each Work
/// write starts a new epoch.
class SearchJob {
 public:
  /// `clear_words` is each CTA's share of the visited-bitmap clear; the
  /// result block holds n_parallel stripes of `run_len` entries.
  SearchJob(const Dataset& ds, const Graph& g, const sim::CostModel& cm,
            const search::SearchConfig& cfg, std::size_t n_parallel,
            std::size_t run_len, std::size_t clear_words, std::uint64_t seed);
  // Posted tasks hold the job's address.
  SearchJob(const SearchJob&) = delete;
  SearchJob& operator=(const SearchJob&) = delete;

  /// Simulator thread, at the Work write: set up the next query and post
  /// a task that runs work() for it, counted in `tasks`. Every round of the
  /// previous query must have been taken; start() waits for the worker that
  /// published the last one to let the job go.
  void start(std::size_t query_index, std::vector<CtaStart> starts,
             BuildExecutor& exec, TaskGroup& tasks);

  /// Simulator thread: the query's next round in the slot's event order.
  /// Computes it here when no worker holds the job (the whole query, when
  /// no task could be posted); otherwise waits until the worker has
  /// published it.
  const SearchRound& next_round();

  /// A CTA's totals; valid once its last round was taken.
  const CtaTotals& totals(std::size_t cta) const { return totals_[cta]; }
  /// The slot's result block; valid once every CTA's last round was taken.
  std::span<const KV> results() const { return results_; }

 private:
  /// A CTA's pending event in the query-local loop.
  struct Pending {
    SimTime at = 0.0;
    std::uint64_t rank = 0;  ///< tie order at `at`
    bool first = true;       ///< the CTA has not started the query yet
    bool live = false;
  };

  /// The job's state word: epoch * 4 + one of these.
  enum Hold : std::uint64_t { kFree = 0, kHeld = 1, kDone = 2 };
  static std::uint64_t word(std::uint64_t epoch, Hold h) {
    return epoch * 4 + h;
  }

  /// A posted task: compute the rounds of query `epoch` until it is done,
  /// taking the job over whenever the simulator thread is not computing a
  /// round. Returns at once for an earlier query. Never throws; a failure
  /// is rethrown by next_round().
  void work(std::uint64_t epoch);
  bool try_hold(std::uint64_t epoch);
  /// Compute and publish the next event; false once every CTA has ended.
  /// Only the holder of the job calls it.
  bool advance();
  void publish(const SearchRound& round);
  void fail(std::uint64_t epoch);
  void notify_waiter();
  void wait_for_worker();
  SearchRound& round_at(std::size_t i);

  const Dataset& ds_;
  const Graph& g_;
  sim::CostModel cm_;
  std::size_t n_parallel_;
  std::size_t run_len_;
  std::size_t clear_words_;
  std::uint64_t seed_;

  // Inputs, written by start() before the job is posted or claimed.
  std::size_t query_index_ ALGAS_OWNED_BY(SearchJob) = 0;
  std::vector<CtaStart> starts_ ALGAS_OWNED_BY(SearchJob);
  std::uint64_t epoch_ ALGAS_OWNED_BY(SearchJob) = 0;
  bool alone_ ALGAS_OWNED_BY(SearchJob) = false;  ///< no task was posted

  // Written only by the job's current holder; the simulator thread reads
  // them below the published round count (release/acquire on published_).
  std::vector<search::IntraCtaSearch> ctas_ ALGAS_OWNED_BY(SearchJob);
  StampedSet visited_ ALGAS_OWNED_BY(SearchJob);
  std::vector<KV> results_ ALGAS_OWNED_BY(SearchJob);  // T * L stripes
  std::vector<CtaTotals> totals_ ALGAS_OWNED_BY(SearchJob);
  std::vector<Pending> pending_ ALGAS_OWNED_BY(SearchJob);
  std::vector<NodeId> entries_ ALGAS_OWNED_BY(SearchJob);
  std::uint64_t next_rank_ ALGAS_OWNED_BY(SearchJob) = 0;
  std::size_t live_ ALGAS_OWNED_BY(SearchJob) = 0;
  bool begun_ ALGAS_OWNED_BY(SearchJob) = false;

  // The round log: blocks double in size and never move, so the reader
  // indexes rounds below published_ while the holder appends.
  static constexpr std::size_t kFirstBlock = 256;
  std::array<std::unique_ptr<SearchRound[]>, 40> blocks_
      ALGAS_OWNED_BY(SearchJob);
  std::size_t written_ ALGAS_OWNED_BY(SearchJob) = 0;
  alignas(64) std::atomic<std::size_t> published_{0};
  std::atomic<std::uint64_t> hold_{word(0, kDone)};
  std::exception_ptr error_ ALGAS_OWNED_BY(SearchJob);
  std::atomic<bool> failed_{false};
  std::atomic<bool> waiting_{false};  ///< the simulator thread is blocked
  std::mutex mu_;
  std::condition_variable cv_;

  // Simulator-thread cursor: rounds taken and published rounds seen.
  alignas(64) std::size_t taken_ ALGAS_OWNED_BY(SearchJob) = 0;
  std::size_t seen_ ALGAS_OWNED_BY(SearchJob) = 0;
};

}  // namespace algas::core
