#include "search/candidate_list.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace algas::search {

CandidateList::CandidateList(std::size_t capacity) : entries_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("candidate list capacity must be at least 1");
  }
}

void CandidateList::reset() {
  std::fill(entries_.begin(), entries_.end(), KV::empty());
  cursor_ = 0;
}

void CandidateList::seed(KV entry) {
  // Insert keeping ascending order; list is assumed freshly reset or only
  // partially filled with seeds (used for entry points only).
  auto it = std::lower_bound(entries_.begin(), entries_.end(), entry);
  if (it == entries_.end()) return;
  std::rotate(it, entries_.end() - 1, entries_.end());
  *it = entry;
  cursor_ = std::min(cursor_, static_cast<std::size_t>(it - entries_.begin()));
}

std::size_t CandidateList::take_unchecked(std::size_t max_count,
                                          std::span<std::size_t> out_indices) {
  assert(out_indices.size() >= max_count);
  std::size_t found = 0;
  std::size_t i = cursor_;
  for (; i < entries_.size() && found < max_count; ++i) {
    KV& e = entries_[i];
    if (e.is_empty()) break;  // ascending: empties are the tail
    if (e.checked()) continue;
    e.mark_checked();
    out_indices[found++] = i;
  }
  cursor_ = i;
  return found;
}

std::size_t CandidateList::merge_sorted(std::span<const KV> expand) {
  const std::size_t cap = entries_.size();
  if (expand.size() > cap) {
    throw std::invalid_argument("expand list larger than candidate list");
  }
  assert(std::is_sorted(expand.begin(), expand.end()));
  // The kernel concatenates [candidates | reversed expand padded to L] and
  // runs a 2L bitonic merge, keeping the lower half. The visited bitmap
  // guarantees each id is scored at most once per query, so every non-empty
  // key in the two halves is distinct under KV ordering, and a merge from
  // the back produces the bitwise-identical lower half: drop the union's
  // expand.size() largest entries, then merge what is left of both lists
  // into the vacated tail, stopping once the expand list is placed. On
  // equal keys the list's entry stays first, as in a stable merge. The
  // modeled cost still charges the full 2L network via the returned size.
  std::size_t i = cap;            // entries_[0, i) are still in the union
  std::size_t j = expand.size();  // expand[0, j) are still in the union
  for (std::size_t drop = expand.size(); drop > 0; --drop) {
    if (i > 0 && expand[j - 1] < entries_[i - 1]) {
      --i;
    } else {
      --j;
    }
  }
  for (std::size_t out = i + j; j > 0;) {
    if (i > 0 && expand[j - 1] < entries_[i - 1]) {
      entries_[--out] = entries_[--i];
    } else {
      entries_[--out] = expand[--j];
    }
  }
  cursor_ = std::min(cursor_, i);  // the first slot written, if any
  return 2 * cap;
}

std::vector<KV> CandidateList::topk(std::size_t k) const {
  std::vector<KV> out;
  out.reserve(std::min(k, entries_.size()));
  for (const KV& e : entries_) {
    if (e.is_empty() || out.size() == k) break;
    out.push_back(e);
  }
  return out;
}

}  // namespace algas::search
