// Minimal thread pool with a blocking parallel_for. Used only for *offline*
// work that is outside the simulated system: graph construction, k-means,
// and brute-force ground truth. The simulated GPU itself is a single-threaded
// discrete-event simulation (see simgpu/simulation.hpp) for determinism.
//
// Error handling: the first exception thrown inside a parallel_for chunk is
// captured and rethrown to the caller instead of terminating the worker
// thread. Nested parallel_for — calling parallel_for from inside a chunk
// already running under any pool's parallel_for — is rejected with
// std::logic_error: the inner call would deadlock a fully busy pool and its
// chunking would depend on scheduling.
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

 private:
  /// Enqueue a chunk; returns immediately. Chunks never throw: parallel_for
  /// wraps each in its own catch.
  void submit(std::function<void()> task);
  /// Block until every submitted chunk has completed.
  void wait_idle();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Routes a `threads` knob (BuildConfig::threads, CLI --threads) to an
/// executor for one build:
///
///   knob 0  → ALGAS_BUILD_THREADS, which itself defaults to hardware
///   resolved 1  → run chunks inline on the caller, no pool involved
///   resolved == global pool size → share the process-wide pool (sized
///                                  by ALGAS_BUILD_THREADS, then hardware)
///   otherwise → a private pool owned by this executor
///
/// parallel_for must produce results independent of the thread count; the
/// graph builders rely on that (see DESIGN.md "Deterministic parallel
/// construction").
class BuildExecutor {
 public:
  explicit BuildExecutor(std::size_t threads = 0);

  /// Worker threads backing this executor (1 = inline serial).
  std::size_t threads() const { return threads_; }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  std::size_t threads_ = 1;
  ThreadPool* pool_ = nullptr;  ///< null = inline serial execution
  std::unique_ptr<ThreadPool> owned_;
};

}  // namespace algas
