#include "search/intra_cta.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace algas::search {

IntraCtaSearch::IntraCtaSearch(const Dataset& ds, const Graph& g,
                               const sim::CostModel& cm,
                               const SearchConfig& cfg)
    : ds_(ds),
      g_(g),
      cm_(cm),
      cfg_(normalize_config(cfg, g.degree())),
      list_(cfg_.candidate_len),
      selected_(cfg_.beam_width) {
  if (ds.num_base() > KV::kMaxNodeId) {
    throw std::invalid_argument("dataset too large for packed KV ids");
  }
  expand_.reserve(cfg_.candidate_len);
  const std::size_t round_cap = cfg_.beam_width * g.degree();
  gathered_.reserve(round_cap);
  round_dists_.reserve(round_cap);
}

void IntraCtaSearch::reset(std::span<const float> query, NodeId entry,
                           StampedSet* visited) {
  assert(visited != nullptr && visited->size() == ds_.num_base());
  query_ = query;
  query_norm_ = ds_.query_norm(query);
  visited_ = visited;
  list_.reset();
  done_ = false;
  diffusing_ = false;
  stats_ = SearchStats{};
  pending_ns_ = 0.0;

  // Degenerate serving views (empty graph, no published entry yet) hand an
  // invalid entry here; terminate with an empty list instead of scoring an
  // out-of-range row.
  if (entry == kInvalidNode || static_cast<std::size_t>(entry) >= g_.num_nodes()) {
    done_ = true;
    return;
  }

  // Score and seed the entry point. If another CTA of the same slot already
  // claimed it, start from an empty list: the first gather would find it
  // visited anyway and this CTA ends immediately — matching the kernel,
  // where entry collisions make a CTA redundant.
  if (visited_->insert(entry)) {
    const float d = ds_.score(query_, entry);
    list_.seed(KV::make(d, entry));
    pending_ns_ = cm_.distance_round_ns(ds_.dim(), 1, 32, ds_.elem_bytes()) +
                  cm_.bitmap_check_ns;
    ++stats_.scored_points;
  } else {
    done_ = true;
  }
}

bool IntraCtaSearch::step(StepCost& cost) {
  if (done_) return false;
  StepCost c;
  c.compute_ns += pending_ns_;
  pending_ns_ = 0.0;

  // --- 1. select candidate(s) to expand --------------------------------
  c.select_ns += cm_.select_ns(cfg_.candidate_len);
  const std::size_t got =
      list_.take_unchecked(diffusing_ ? cfg_.beam_width : 1, selected_);
  if (got == 0) {
    done_ = true;
    stats_.cost += c;
    cost = c;
    return true;  // this round performed the (empty) final scan
  }
  if (!diffusing_ && selected_[0] >= cfg_.offset_beam &&
      cfg_.beam_width > 1) {
    diffusing_ = true;  // §IV-C: selected offset reached offset_beam
  }

  // --- 2+3. gather neighbors + filter via bitmap, then one batched
  // distance round over the surviving ids — the same gather/score split the
  // kernel's coalesced round performs (§IV-B step 3). Claiming via
  // insert during the gather keeps the id order (and therefore every
  // float result) identical to the seed's fused loop.
  gathered_.clear();
  for (std::size_t s = 0; s < got; ++s) {
    const KV& sel = list_.at(selected_[s]);
    if (trace_) stats_.step_distances.push_back(sel.dist);
    ++stats_.expanded_points;
    for (NodeId nb : g_.neighbors(sel.id())) {
      if (nb == kInvalidNode) continue;
      c.gather_ns += cm_.gather_per_neighbor_ns;
      c.gather_ns += cm_.bitmap_check_ns;
      if (!visited_->insert(nb)) continue;  // another CTA owns it
      gathered_.push_back(nb);
    }
  }
  const std::size_t scored = gathered_.size();
  round_dists_.resize(scored);
  ds_.distance_batch(query_, gathered_, round_dists_, query_norm_);
  // Only entries below the list's last entry can enter it; the rest are
  // dropped here, before the sort (CandidateList::can_enter).
  expand_.clear();
  for (std::size_t k = 0; k < scored; ++k) {
    const KV kv = KV::make(round_dists_[k], gathered_[k]);
    if (list_.can_enter(kv)) expand_.push_back(kv);
  }
  stats_.scored_points += scored;
  c.compute_ns +=
      cm_.distance_round_ns(ds_.dim(), scored, 32, ds_.elem_bytes());

  // --- 4. one bitonic sort + merge for the whole round -------------------
  if (scored > 0) {
    // All ids in expand_ are distinct (the visited bitmap filtered the
    // gather), so std::sort produces the exact array the kernel's bitonic
    // network would, and an entry dropped above could never have entered.
    // The modeled cost below charges the network the kernel runs over every
    // scored entry: the padded sort and the 2L merge.
    const std::size_t network = 2 * list_.capacity();
    if (!expand_.empty()) {
      std::sort(expand_.begin(), expand_.end());
      list_.merge_sorted(expand_);
    }
    if (cfg_.full_sort_maintenance) {
      // GANNS-style: full re-sort of the merged buffer every round.
      c.sort_ns += cm_.bitonic_sort_ns(network);
    } else {
      c.sort_ns += cm_.bitonic_sort_ns(next_pow2(scored));
      c.sort_ns += cm_.bitonic_merge_ns(network);
    }
  }

  ++stats_.rounds;
  stats_.cost += c;
  cost = c;
  return true;
}

std::vector<KV> IntraCtaSearch::results() const {
  // Same walk as CandidateList::topk (entries ascending, empties at the
  // tail terminate), with predicate-rejected ids skipped at the accept
  // step.
  std::vector<KV> out;
  out.reserve(std::min(cfg_.topk, list_.capacity()));
  for (const KV& e : list_.entries()) {
    if (e.is_empty() || out.size() == cfg_.topk) break;
    if (!cfg_.accept.accepts(e.id())) continue;
    out.push_back(e);
  }
  return out;
}

sim::SharedMemoryLayout shared_memory_layout(const SearchConfig& cfg,
                                             const Dataset& ds,
                                             std::size_t degree) {
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = cfg.candidate_len;
  layout.expand_entries =
      next_pow2(std::max<std::size_t>(1, cfg.beam_width) * degree);
  layout.dim = ds.dim();
  layout.elem_bytes = ds.elem_bytes();
  return layout;
}

}  // namespace algas::search
