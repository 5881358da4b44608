#include "search/candidate_list.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace algas::search {

CandidateList::CandidateList(std::size_t capacity)
    : entries_(capacity), scratch_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("candidate list capacity must be at least 1");
  }
}

void CandidateList::reset() {
  std::fill(entries_.begin(), entries_.end(), KV::empty());
}

void CandidateList::seed(KV entry) {
  // Insert keeping ascending order; list is assumed freshly reset or only
  // partially filled with seeds (used for entry points only).
  auto it = std::lower_bound(entries_.begin(), entries_.end(), entry);
  if (it == entries_.end()) return;
  std::rotate(it, entries_.end() - 1, entries_.end());
  *it = entry;
}

std::size_t CandidateList::take_unchecked(std::size_t max_count,
                                          std::span<std::size_t> out_indices) {
  assert(out_indices.size() >= max_count);
  std::size_t found = 0;
  for (std::size_t i = 0; i < entries_.size() && found < max_count; ++i) {
    KV& e = entries_[i];
    if (e.is_empty()) break;  // ascending: empties are the tail
    if (e.checked()) continue;
    e.mark_checked();
    out_indices[found++] = i;
  }
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
  // key in the two halves is distinct under KV ordering and a bounded linear
  // merge produces the bitwise-identical lower half in O(L) host time
  // instead of O(L log 2L), into scratch_, which then becomes the list. The
  // modeled cost still charges the full 2L network via the returned size.
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t out = 0; out < cap; ++out) {
    if (j < expand.size() && expand[j] < entries_[i]) {
      scratch_[out] = expand[j++];
    } else {
      scratch_[out] = entries_[i++];
    }
  }
  entries_.swap(scratch_);
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
