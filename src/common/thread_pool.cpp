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

/// Process-wide pool for construction work and the engines' searches
/// (lazily constructed; sized by ALGAS_BUILD_THREADS — see common/env.hpp —
/// falling back to hardware concurrency).
ThreadPool& global_pool() {
  static ThreadPool pool(build_threads());
  return pool;
}
}  // namespace

void TaskGroup::add() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
}

void TaskGroup::done() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

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

void ThreadPool::post(TaskGroup& group, std::function<void()> task) {
  group.add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push({std::move(task), &group});
  }
  cv_task_.notify_one();
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (tl_in_parallel_for) {
    throw std::logic_error(
        "ThreadPool::parallel_for: nested parallel_for is not supported "
        "(the inner loop would deadlock a fully busy pool)");
  }
  // Per-call state: concurrent parallel_for calls and posted tasks share
  // the pool, so each call waits for and rethrows only its own chunks.
  struct ForState {
    TaskGroup chunks;
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
  // The last chunk runs on the calling thread, which then waits for the
  // chunks it queued. Each queued chunk holds `state`, so its group
  // outlives the chunk's count-down.
  std::size_t begin = 0;
  for (; begin + chunk < n; begin += chunk) {
    const std::size_t end = begin + chunk;
    post(state->chunks, [run, state, begin, end] { run(begin, end); });
  }
  run(begin, n);
  state->chunks.wait();
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
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
    task.run();
    task.group->done();
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

bool BuildExecutor::post(TaskGroup& group, std::function<void()> task) {
  if (pool_ == nullptr || tl_in_parallel_for) return false;
  pool_->post(group, std::move(task));
  return true;
}

}  // namespace algas
