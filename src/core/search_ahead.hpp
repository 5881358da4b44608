// The functional searches of an engine run's arrivals, computed ahead of
// dispatch on the build executor (DESIGN.md, "Search ahead by query").
//
// A query's search depends on the query alone (search/multi_cta.hpp), so
// the search of any arrival can run before the DES dispatches it; the DES
// needs only each CTA's round charges and the merged TopK. SearchAhead
// keeps the whole-query searches of the next `window` arrivals posted, one
// task each. At a query's Work write the simulator thread takes its
// finished search; when it sheds a query it releases that search. Either
// way the arrival is consumed and the next one is posted. A take runs the
// search on the simulator thread when no worker has claimed it; while a
// worker holds it, the simulator thread runs another unclaimed search of
// the window instead of idling, then waits.
//
// Threads: take() and release() run on the simulator thread, posted tasks
// on pool workers. One mutex guards every arrival's state and the finished
// searches; a search itself runs outside it. Which thread runs a search
// never changes it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "search/multi_cta.hpp"

namespace algas::core {

class SearchAhead {
 public:
  /// Runs query `query_index`'s whole search on the calling thread. No
  /// other thread holds `lane` (below the executor's threads() + 1) during
  /// the call, so the function may keep scratch per lane.
  using Search = std::function<search::MultiCtaResult(std::size_t query_index,
                                                      std::size_t lane)>;

  /// `queries`: the run's arrivals' query indices, in arrival order. Posts
  /// the first `window` searches at once.
  SearchAhead(std::vector<std::size_t> queries, std::size_t window,
              Search search, BuildExecutor& exec);
  /// Releases every search not yet claimed and waits for every posted task.
  ~SearchAhead();
  // Posted tasks hold the window's address.
  SearchAhead(const SearchAhead&) = delete;
  SearchAhead& operator=(const SearchAhead&) = delete;

  /// The finished search of the earliest unconsumed arrival of
  /// `query_index`, which this consumes. Rethrows the search's exception.
  search::MultiCtaResult take(std::size_t query_index);

  /// Consumes the earliest unconsumed arrival of `query_index` without its
  /// search (the query was shed): a finished search is dropped, a running
  /// one is dropped when it ends, and an unclaimed one never runs.
  void release(std::size_t query_index);

 private:
  enum class State : std::uint8_t {
    kAhead,     ///< past the window, not posted
    kPosted,    ///< in the window, unclaimed
    kRunning,   ///< a thread is running its search
    kDone,      ///< finished, in finished_
    kConsumed,  ///< taken or released
  };
  struct Finished {
    search::MultiCtaResult result;
    std::exception_ptr error;
  };

  /// A posted task: runs arrival `a`'s search unless a thread claimed it
  /// first or it was released.
  void work(std::size_t a);
  /// Runs arrival `a`'s search, which the caller has marked kRunning, on
  /// `lane` and files it. Never throws: a failure is filed for the take.
  void run(std::size_t a, std::size_t lane);
  /// Claims arrival `a` for the simulator thread and runs it, unlocking
  /// `lock` meanwhile.
  void run_here(std::unique_lock<std::mutex>& lock, std::size_t a);
  /// The earliest unconsumed arrival of `query_index`, now consumed from
  /// its query's list. Throws std::logic_error when it has none.
  std::size_t next_of(std::size_t query_index);
  /// Marks `a` consumed and fills the window.
  void consume(std::size_t a);
  /// Posts the next arrivals not yet consumed while fewer than `window_`
  /// posted ones are unconsumed.
  void fill_window();

  const std::vector<std::size_t> queries_;
  const std::size_t window_;
  const Search search_;
  BuildExecutor& exec_;
  TaskGroup tasks_;  ///< the posted tasks; the destructor waits for them

  // Everything below is guarded by mu_.
  std::mutex mu_;
  std::condition_variable done_cv_;  ///< an arrival's search was filed
  std::vector<State> state_;         ///< per arrival
  /// Each query index's unconsumed arrivals, earliest first: the head in
  /// first_of_, the rest chained through next_same_ (all ones: no more).
  std::vector<std::size_t> first_of_;
  std::vector<std::size_t> next_same_;
  std::unordered_map<std::size_t, Finished> finished_;  ///< by arrival
  std::size_t posted_ = 0;     ///< arrivals below it have left kAhead
  std::size_t open_ = 0;       ///< arrivals posted and not consumed
  std::size_t help_from_ = 0;  ///< no arrival below it is kPosted
  std::vector<std::size_t> free_lanes_;  ///< lanes no thread holds
};

}  // namespace algas::core
