#include "core/search_ahead.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace algas::core {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
}  // namespace

SearchAhead::SearchAhead(std::vector<std::size_t> queries, std::size_t window,
                         Search search, BuildExecutor& exec)
    : queries_(std::move(queries)),
      window_(std::max<std::size_t>(window, 1)),
      search_(std::move(search)),
      exec_(exec),
      state_(queries_.size(), State::kAhead),
      next_same_(queries_.size(), kNone) {
  if (!queries_.empty()) {
    first_of_.assign(*std::max_element(queries_.begin(), queries_.end()) + 1,
                     kNone);
  }
  for (std::size_t a = queries_.size(); a-- > 0;) {
    next_same_[a] = first_of_[queries_[a]];
    first_of_[queries_[a]] = a;
  }
  for (std::size_t lane = exec.threads() + 1; lane-- > 0;) {
    free_lanes_.push_back(lane);
  }
  std::lock_guard<std::mutex> lock(mu_);
  fill_window();
}

SearchAhead::~SearchAhead() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t a = help_from_; a < posted_; ++a) {
      if (state_[a] == State::kPosted) state_[a] = State::kConsumed;
    }
  }
  tasks_.wait();
}

void SearchAhead::work(std::size_t a) {
  std::size_t lane = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_[a] != State::kPosted) return;
    state_[a] = State::kRunning;
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  }
  run(a, lane);
}

void SearchAhead::run(std::size_t a, std::size_t lane) {
  Finished f;
  try {
    f.result = search_(queries_[a], lane);
  } catch (...) {
    f.error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_lanes_.push_back(lane);
    if (state_[a] != State::kRunning) return;  // released while it ran
    finished_.emplace(a, std::move(f));
    state_[a] = State::kDone;
  }
  done_cv_.notify_one();
}

void SearchAhead::run_here(std::unique_lock<std::mutex>& lock,
                           std::size_t a) {
  state_[a] = State::kRunning;
  const std::size_t lane = free_lanes_.back();
  free_lanes_.pop_back();
  lock.unlock();
  run(a, lane);
  lock.lock();
}

search::MultiCtaResult SearchAhead::take(std::size_t query_index) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t a = next_of(query_index);
  while (state_[a] != State::kDone) {
    if (state_[a] != State::kRunning) {
      run_here(lock, a);  // no worker has claimed it
      continue;
    }
    // A worker holds it: run the earliest unclaimed search meanwhile. Only
    // this thread posts, so once none is left none appears while it waits.
    while (help_from_ < posted_ && state_[help_from_] != State::kPosted) {
      ++help_from_;
    }
    if (help_from_ < posted_) {
      run_here(lock, help_from_);
    } else {
      done_cv_.wait(lock, [&] { return state_[a] == State::kDone; });
    }
  }
  Finished f = std::move(finished_.extract(a).mapped());
  consume(a);
  lock.unlock();
  if (f.error) std::rethrow_exception(f.error);
  return std::move(f.result);
}

void SearchAhead::release(std::size_t query_index) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t a = next_of(query_index);
  finished_.erase(a);
  consume(a);
}

std::size_t SearchAhead::next_of(std::size_t query_index) {
  const std::size_t a =
      query_index < first_of_.size() ? first_of_[query_index] : kNone;
  if (a == kNone) {
    throw std::logic_error("SearchAhead: query " +
                           std::to_string(query_index) +
                           " has no arrival left to consume");
  }
  first_of_[query_index] = next_same_[a];
  return a;
}

void SearchAhead::consume(std::size_t a) {
  if (a < posted_) --open_;  // else it was taken before its turn
  state_[a] = State::kConsumed;
  fill_window();
}

void SearchAhead::fill_window() {
  for (; open_ < window_ && posted_ < queries_.size(); ++posted_) {
    const std::size_t next = posted_;
    if (state_[next] != State::kAhead) continue;
    state_[next] = State::kPosted;
    ++open_;
    // With no pool to post to, the simulator thread runs it at its take.
    exec_.post(tasks_, [this, next] { work(next); });
  }
}

}  // namespace algas::core
