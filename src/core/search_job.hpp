// One slot's functional search, run as a job off the simulator thread
// (DESIGN.md, "Search rounds off the simulator thread").
//
// A query's search depends on the query alone (search/multi_cta.hpp), so
// the host's Work write hands the job just the query index. The job runs
// the slot's search::MultiCtaSearch and publishes each round as soon as it
// is computed; CtaActor::step keeps one event per round and charges its own
// CTA's next published round. Only the functional search moves off the
// simulator thread.
//
// Threads: start() and next_round() run on the simulator thread. A posted
// task (work()) computes the rounds on a pool worker. When the simulator
// thread needs a round that is not published and no worker holds the job,
// it claims the job and computes the next round itself; a worker that
// arrives later takes over from there. Whoever holds the job owns
// everything it writes; the hand-off is the release/acquire on the job's
// state word.
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

#include "common/ownership.hpp"
#include "common/thread_pool.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "search/multi_cta.hpp"
#include "simgpu/cost_model.hpp"

namespace algas::core {

/// One slot's search, reused for every query the slot serves; each Work
/// write starts a new epoch.
class SearchJob {
 public:
  SearchJob(const Dataset& ds, const Graph& g, const sim::CostModel& cm,
            const search::SearchConfig& cfg, std::size_t n_parallel,
            std::uint64_t seed);
  // Posted tasks hold the job's address.
  SearchJob(const SearchJob&) = delete;
  SearchJob& operator=(const SearchJob&) = delete;

  /// Simulator thread, at the Work write: set up the next query and post
  /// a task that runs work() for it, counted in `tasks`. Every round of the
  /// previous query must have been taken; start() waits for the worker that
  /// published the last one to let the job go.
  void start(std::size_t query_index, BuildExecutor& exec, TaskGroup& tasks);

  /// Simulator thread: CTA `cta`'s next round. Computes rounds here when
  /// no worker holds the job (the whole query, when no task could be
  /// posted); otherwise waits until the worker has published it.
  const search::CtaRound& next_round(std::size_t cta);

  /// The query's search totals, summed in CTA order; valid once every
  /// CTA's last round was taken.
  search::SearchStats totals() const { return search_.totals(); }
  /// The slot's result block; valid once every CTA's last round was taken.
  std::span<const KV> results() const { return search_.results(); }

 private:
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
  /// Compute and publish the next round; false once every CTA has ended.
  /// Only the holder of the job calls it.
  bool advance();
  void publish(const search::CtaRound& round);
  void fail(std::uint64_t epoch);
  void notify_waiter();
  /// Blocks until more than `seen` rounds are published or the job failed.
  void wait_for_worker(std::size_t seen);
  search::CtaRound& round_at(std::size_t i);

  const Dataset& ds_;

  // Inputs, written by start() before the job is posted or claimed.
  std::size_t query_index_ ALGAS_OWNED_BY(SearchJob) = 0;
  std::uint64_t epoch_ ALGAS_OWNED_BY(SearchJob) = 0;
  bool alone_ ALGAS_OWNED_BY(SearchJob) = false;  ///< no task was posted

  // Written only by the job's current holder; the simulator thread reads
  // it below the published round count (release/acquire on published_).
  search::MultiCtaSearch search_ ALGAS_OWNED_BY(SearchJob);
  bool begun_ ALGAS_OWNED_BY(SearchJob) = false;

  // The round log: blocks double in size and never move, so the reader
  // indexes rounds below published_ while the holder appends.
  static constexpr std::size_t kFirstBlock = 256;
  std::array<std::unique_ptr<search::CtaRound[]>, 40> blocks_
      ALGAS_OWNED_BY(SearchJob);
  std::size_t written_ ALGAS_OWNED_BY(SearchJob) = 0;
  alignas(64) std::atomic<std::size_t> published_{0};
  std::atomic<std::uint64_t> hold_{word(0, kDone)};
  std::exception_ptr error_ ALGAS_OWNED_BY(SearchJob);
  std::atomic<bool> failed_{false};
  std::atomic<bool> waiting_{false};  ///< the simulator thread is blocked
  std::mutex mu_;
  std::condition_variable cv_;

  // Simulator-thread cursors: each CTA's next log index to scan, and the
  // published count last seen.
  alignas(64) std::vector<std::size_t> cta_scan_ ALGAS_OWNED_BY(SearchJob);
  std::size_t seen_ ALGAS_OWNED_BY(SearchJob) = 0;
};

}  // namespace algas::core
