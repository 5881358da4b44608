#include "core/search_job.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <thread>
#include <utility>

#include "search/multi_cta.hpp"

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

void charge_work(double* elapsed, const sim::CostModel& cm, bool first,
                 std::size_t clear_words, const SearchRound& round) {
  if (first) {
    *elapsed += cm.cta_start_ns + static_cast<double>(clear_words) *
                                      cm.bitmap_clear_per_word_ns;
  }
  if (round.stepped) *elapsed += round.cost.total_ns();
}

SearchJob::SearchJob(const Dataset& ds, const Graph& g,
                     const sim::CostModel& cm,
                     const search::SearchConfig& cfg, std::size_t n_parallel,
                     std::size_t run_len, std::size_t clear_words,
                     std::uint64_t seed)
    : ds_(ds),
      g_(g),
      cm_(cm),
      n_parallel_(n_parallel),
      run_len_(run_len),
      clear_words_(clear_words),
      seed_(seed),
      visited_(ds.num_base()),
      results_(n_parallel * run_len, KV::empty()),
      totals_(n_parallel),
      pending_(n_parallel) {
  ctas_.reserve(n_parallel);
  for (std::size_t c = 0; c < n_parallel; ++c) {
    ctas_.emplace_back(ds, g, cm, cfg);
  }
}

void SearchJob::start(std::size_t query_index, std::vector<CtaStart> starts,
                      BuildExecutor& exec, TaskGroup& tasks) {
  assert(starts.size() == n_parallel_);
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
  starts_ = std::move(starts);
  begun_ = false;
  written_ = 0;
  published_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  taken_ = 0;
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
    entries_ =
        search::select_entry_points(g_, n_parallel_, seed_, query_index_);
    visited_.clear();  // functional clear; the CTAs charge the modeled one
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      pending_[starts_[i].cta] = {starts_[i].at, i, true, true};
    }
    next_rank_ = starts_.size();
    live_ = starts_.size();
  }
  // The DES's order: earliest instant, then earliest scheduled.
  std::size_t c = n_parallel_;
  for (std::size_t k = 0; k < n_parallel_; ++k) {
    const Pending& p = pending_[k];
    if (!p.live) continue;
    if (c == n_parallel_ || p.at < pending_[c].at ||
        (p.at == pending_[c].at && p.rank < pending_[c].rank)) {
      c = k;
    }
  }
  Pending& p = pending_[c];
  search::IntraCtaSearch& cta = ctas_[c];
  SearchRound round;
  round.cta = static_cast<std::uint32_t>(c);
  if (p.first) {
    // A graph with fewer nodes than CTAs yields fewer entry points; a CTA
    // without one ends with an empty list.
    cta.reset(ds_.query(query_index_),
              c < entries_.size() ? entries_[c] : kInvalidNode, &visited_);
  }
  round.stepped = cta.step(round.cost);
  round.done = cta.done();
  if (round.done) {
    const auto cand = cta.candidates();
    std::copy(cand.begin(), cand.end(), results_.begin() + c * run_len_);
    const search::SearchStats& st = cta.stats();
    totals_[c] = {st.expanded_points, st.rounds, st.scored_points};
    p.live = false;
    --live_;
  } else {
    // The CTA's next event, at the instant CtaActor::step schedules it.
    double elapsed = 0.0;
    elapsed += cm_.poll_local_ns;  // StateSync::device_read
    charge_work(&elapsed, cm_, p.first, clear_words_, round);
    p.at = p.at + elapsed;
    p.rank = next_rank_++;
  }
  p.first = false;
  publish(round);
  return live_ > 0;
}

SearchRound& SearchJob::round_at(std::size_t i) {
  // Block b holds kFirstBlock << b rounds from kFirstBlock * (2^b - 1) on.
  const auto b =
      static_cast<std::size_t>(std::bit_width(i / kFirstBlock + 1) - 1);
  return blocks_[b][i - kFirstBlock * ((std::size_t{1} << b) - 1)];
}

void SearchJob::publish(const SearchRound& round) {
  const auto b = static_cast<std::size_t>(
      std::bit_width(written_ / kFirstBlock + 1) - 1);
  if (!blocks_[b]) {
    blocks_[b] = std::make_unique<SearchRound[]>(kFirstBlock << b);
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

void SearchJob::wait_for_worker() {
  const std::size_t taken = taken_;
  const auto ready = [&] {
    return published_.load() > taken || failed_.load();
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

const SearchRound& SearchJob::next_round() {
  while (taken_ == seen_) {
    seen_ = published_.load(std::memory_order_acquire);
    if (taken_ < seen_) break;
    if (failed_.load(std::memory_order_acquire)) {
      std::rethrow_exception(error_);
    }
    if (try_hold(epoch_)) {
      // No worker holds the job: compute the round here, then hand the job
      // back for a worker to take over. With no task posted none will
      // come, so compute the whole query.
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
      wait_for_worker();
    }
  }
  return round_at(taken_++);
}

}  // namespace algas::core
