// Minimal thread pool: a blocking parallel_for, and post() for tasks
// counted in a TaskGroup that their poster waits on. It serves the work
// the simulated system's clock does not see: graph construction, k-means
// and brute-force ground truth through parallel_for, and the engines'
// searches through post(), which compute upcoming queries' functional
// searches while the single-threaded discrete-event simulation
// (simgpu/simulation.hpp) replays the dispatched ones' costs (DESIGN.md,
// "Search ahead by query"). The simulation itself stays on one thread, for
// determinism.
//
// Error handling: the first exception thrown inside a parallel_for chunk is
// captured and rethrown to the caller instead of terminating the worker
// thread. Nested parallel_for — calling parallel_for from inside a chunk
// already running under any pool's parallel_for — is rejected with
// std::logic_error: the inner call would deadlock a fully busy pool and its
// chunking would depend on scheduling. A posted task must not throw.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace algas {

/// Counts the tasks posted to a pool on one poster's behalf, so it can wait
/// for all of them: parallel_for's chunks, or an engine run's searches.
/// post() adds each task and the worker marks it done after it returns.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task posted in this group has returned.
  void wait();

 private:
  friend class ThreadPool;
  void add();
  void done();

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
};

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Split [0, n) into chunks and run `fn(begin, end)` across the pool,
  /// including the calling thread. Blocks until complete; rethrows the
  /// first exception thrown by any chunk. Throws std::logic_error when
  /// called from inside a parallel_for chunk (nesting is not supported).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Queue `task` for a worker, counted in `group`, and return at once.
  /// `group` must outlive the task. Tasks run in FIFO order with
  /// parallel_for's chunks; each parallel_for waits for its own group only,
  /// so posted tasks never hold one up past their own run time.
  void post(TaskGroup& group, std::function<void()> task);

 private:
  struct Task {
    std::function<void()> run;
    TaskGroup* group = nullptr;
  };
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool stopping_ = false;
};

/// Routes a `threads` knob (BuildConfig::threads, CLI --threads) to an
/// executor for one build, or for one engine run's searches (knob 0):
///
///   knob 0  → ALGAS_BUILD_THREADS, which itself defaults to hardware
///   resolved 1  → run chunks inline on the caller, no pool involved
///   resolved == global pool size → share the process-wide pool (sized
///                                  by ALGAS_BUILD_THREADS, then hardware)
///   otherwise → a private pool owned by this executor
///
/// parallel_for must produce results independent of the thread count; the
/// graph builders rely on that (see DESIGN.md "Deterministic parallel
/// construction"). So must work handed to post(): an engine's search is the
/// same whichever thread runs it.
class BuildExecutor {
 public:
  explicit BuildExecutor(std::size_t threads = 0);

  /// Worker threads backing this executor (1 = inline serial).
  std::size_t threads() const { return threads_; }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Queue `task` on a pool worker, counted in `group`, and return true.
  /// Returns false, leaving `task` unrun and uncounted, when this executor
  /// runs inline or the caller is itself inside a parallel_for chunk (a
  /// task it then waited on could deadlock a fully busy pool): the caller
  /// must be able to do the work itself.
  bool post(TaskGroup& group, std::function<void()> task);

 private:
  std::size_t threads_ = 1;
  ThreadPool* pool_ = nullptr;  ///< null = inline serial execution
  std::unique_ptr<ThreadPool> owned_;
};

}  // namespace algas
