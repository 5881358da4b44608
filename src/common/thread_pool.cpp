#include "common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/env.hpp"

namespace algas {

namespace {
/// Set while the current thread executes a parallel_for chunk (any pool) —
/// the nesting guard. thread_local so worker threads and the calling
/// thread are covered uniformly.
thread_local bool tl_in_parallel_for = false;

/// Process-wide pool for offline work (lazily constructed; sized by
/// ALGAS_BUILD_THREADS — see common/env.hpp — falling back to hardware
/// concurrency).
ThreadPool& global_pool() {
  static ThreadPool pool(build_threads());
  return pool;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (tl_in_parallel_for) {
    throw std::logic_error(
        "ThreadPool::parallel_for: nested parallel_for is not supported "
        "(the inner loop would deadlock a fully busy pool)");
  }
  // Per-call error state: concurrent parallel_for calls on a shared pool
  // must each rethrow only their own chunks' failures.
  struct ForState {
    std::mutex mu;
    std::exception_ptr error;
  };
  auto state = std::make_shared<ForState>();
  const auto run = [&fn, state](std::size_t begin, std::size_t end) {
    tl_in_parallel_for = true;
    try {
      fn(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    tl_in_parallel_for = false;
  };

  const std::size_t parts = std::min(n, workers_.size() * 4 + 1);
  const std::size_t chunk = (n + parts - 1) / parts;
  // The last chunk runs on the calling thread so a 1-thread pool still makes
  // forward progress while the caller is blocked in wait_idle().
  std::size_t begin = 0;
  for (; begin + chunk < n; begin += chunk) {
    const std::size_t end = begin + chunk;
    submit([run, begin, end] { run(begin, end); });
  }
  run(begin, n);
  wait_idle();
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

BuildExecutor::BuildExecutor(std::size_t threads) {
  if (threads == 0) threads = build_threads();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_ = threads;
  if (threads == 1) return;  // inline serial: pool_ stays null
  if (threads == global_pool().size()) {
    pool_ = &global_pool();
  } else {
    owned_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_.get();
  }
}

void BuildExecutor::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (pool_ == nullptr) {
    fn(0, n);
    return;
  }
  pool_->parallel_for(n, fn);
}

}  // namespace algas
