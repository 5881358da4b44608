#include "core/search_job.hpp"

#include <algorithm>
#include <bit>
#include <thread>

namespace algas::core {

namespace {

/// Spin-wait polls before the simulator thread blocks on a worker's round
/// or yields to a worker's release, about 45 us of `pause`: a worker
/// mid-query publishes its next round within a few microseconds.
constexpr int kSpins = 2048;

/// One spin-wait step: tells the core this thread is polling a flag.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

SearchJob::SearchJob(const Dataset& ds, const Graph& g,
                     const sim::CostModel& cm,
                     const search::SearchConfig& cfg, std::size_t n_parallel,
                     std::uint64_t seed)
    : ds_(ds),
      search_(ds, g, cm, cfg, n_parallel, seed),
      cta_scan_(n_parallel, 0) {}

void SearchJob::start(std::size_t query_index, BuildExecutor& exec,
                      TaskGroup& tasks) {
  // Every round of the previous query was taken, but the worker that
  // published the last one may still hold the job: it reads the job's
  // state and then releases it. Wait for that release, a few instructions
  // away unless the worker was preempted, so that the worker's release
  // cannot overwrite this query's state word and this query's set-up
  // happens after the worker's last read.
  int spins = 0;
  while (hold_.load(std::memory_order_acquire) == word(epoch_, kHeld)) {
    if (spins < kSpins) {
      ++spins;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  query_index_ = query_index;
  begun_ = false;
  written_ = 0;
  published_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  std::fill(cta_scan_.begin(), cta_scan_.end(), 0);
  seen_ = 0;
  const std::uint64_t epoch = ++epoch_;
  hold_.store(word(epoch, kFree), std::memory_order_release);
  alone_ = !exec.post(tasks, [this, epoch] { work(epoch); });
}

bool SearchJob::try_hold(std::uint64_t epoch) {
  std::uint64_t free = word(epoch, kFree);
  return hold_.compare_exchange_strong(free, word(epoch, kHeld),
                                       std::memory_order_acq_rel);
}

void SearchJob::work(std::uint64_t epoch) {
  for (;;) {
    const std::uint64_t h = hold_.load(std::memory_order_acquire);
    if (h == word(epoch, kHeld)) {
      // The simulator thread is computing a round; take over after it.
      cpu_relax();
      continue;
    }
    if (h != word(epoch, kFree)) return;  // done, or a later query
    if (!try_hold(epoch)) continue;
    try {
      while (advance()) {
      }
      hold_.store(word(epoch, kDone), std::memory_order_release);
    } catch (...) {
      fail(epoch);
    }
    notify_waiter();
    return;
  }
}

void SearchJob::fail(std::uint64_t epoch) {
  error_ = std::current_exception();
  failed_.store(true);
  hold_.store(word(epoch, kDone), std::memory_order_release);
}

bool SearchJob::advance() {
  if (!begun_) {
    begun_ = true;
    search_.start(ds_.query(query_index_), query_index_);
  }
  publish(search_.advance());
  return !search_.done();
}

search::CtaRound& SearchJob::round_at(std::size_t i) {
  // Block b holds kFirstBlock << b rounds from kFirstBlock * (2^b - 1) on.
  const auto b =
      static_cast<std::size_t>(std::bit_width(i / kFirstBlock + 1) - 1);
  return blocks_[b][i - kFirstBlock * ((std::size_t{1} << b) - 1)];
}

void SearchJob::publish(const search::CtaRound& round) {
  const auto b = static_cast<std::size_t>(
      std::bit_width(written_ / kFirstBlock + 1) - 1);
  if (!blocks_[b]) {
    blocks_[b] = std::make_unique<search::CtaRound[]>(kFirstBlock << b);
  }
  round_at(written_) = round;
  published_.store(++written_);
  notify_waiter();
}

void SearchJob::notify_waiter() {
  // Sequentially consistent with wait_for_worker: either the waiter sees
  // the new count before it blocks, or this sees it waiting and wakes it.
  if (waiting_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_one();
  }
}

void SearchJob::wait_for_worker(std::size_t seen) {
  const auto ready = [&] {
    return published_.load() > seen || failed_.load();
  };
  for (int i = 0; i < kSpins; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  waiting_.store(true);
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, ready);
  }
  waiting_.store(false);
}

const search::CtaRound& SearchJob::next_round(std::size_t cta) {
  std::size_t& i = cta_scan_[cta];
  for (;;) {
    // This CTA's next round among those published; the log holds every
    // CTA's rounds in the search's own order.
    for (; i < seen_; ++i) {
      if (round_at(i).cta == cta) return round_at(i++);
    }
    seen_ = published_.load(std::memory_order_acquire);
    if (i < seen_) continue;
    if (failed_.load(std::memory_order_acquire)) {
      std::rethrow_exception(error_);
    }
    if (try_hold(epoch_)) {
      // No worker holds the job: compute the next round here, then hand
      // the job back for a worker to take over. With no task posted none
      // will come, so compute the whole query.
      bool more = false;
      try {
        do {
          more = advance();
        } while (more && alone_);
      } catch (...) {
        fail(epoch_);
        throw;
      }
      hold_.store(word(epoch_, more ? kFree : kDone),
                  std::memory_order_release);
    } else {
      wait_for_worker(seen_);
    }
  }
}

}  // namespace algas::core
