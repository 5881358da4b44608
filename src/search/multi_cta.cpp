#include "search/multi_cta.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace algas::search {

std::vector<NodeId> select_entry_points(const Graph& g, std::size_t count,
                                        std::uint64_t seed,
                                        std::size_t query_index) {
  std::vector<NodeId> entries;
  entries.reserve(count);
  const std::size_t n = g.num_nodes();
  if (n == 0) return entries;  // empty graph: nothing to enter
  entries.push_back(g.entry_point());
  std::uint64_t h = splitmix64(seed ^ (0x9e37u + query_index * 0x100000001b3ULL));
  while (entries.size() < count && entries.size() < n) {
    h = splitmix64(h);
    const auto candidate = static_cast<NodeId>(h % n);
    if (std::find(entries.begin(), entries.end(), candidate) ==
        entries.end()) {
      entries.push_back(candidate);
    }
  }
  return entries;
}

std::size_t visited_clear_words(std::size_t num_base,
                                std::size_t n_parallel) {
  // ceil on both levels: the bitmap's trailing partial word AND the split's
  // remainder words are charged. The seed's `words / n_parallel + 1` formula
  // mis-sized the per-CTA share — off by one full word whenever n_parallel
  // divides the word count, and drifting as n_parallel grows.
  return ceil_div(ceil_div(num_base, 64), std::max<std::size_t>(1, n_parallel));
}

void charge_work(double* elapsed, const sim::CostModel& cm, bool first,
                 std::size_t clear_words, double round_ns) {
  if (first) {
    *elapsed += cm.cta_start_ns + static_cast<double>(clear_words) *
                                      cm.bitmap_clear_per_word_ns;
  }
  *elapsed += round_ns;
}

MultiCtaSearch::MultiCtaSearch(const Dataset& ds, const Graph& g,
                               const sim::CostModel& cm,
                               const SearchConfig& cfg, std::size_t num_ctas,
                               std::uint64_t seed)
    : g_(g),
      cm_(cm),
      seed_(seed),
      topk_(cfg.topk),
      accept_(cfg.accept),
      run_len_(normalize_config(cfg, g.degree()).candidate_len),
      clear_words_(visited_clear_words(ds.num_base(), num_ctas)),
      visited_(ds.num_base()),
      results_(num_ctas * run_len_, KV::empty()),
      pending_(num_ctas),
      charges_(num_ctas) {
  ctas_.reserve(num_ctas);
  for (std::size_t c = 0; c < num_ctas; ++c) {
    ctas_.emplace_back(ds, g, cm, cfg);
  }
}

MultiCtaResult MultiCtaSearch::run(std::span<const float> query,
                                   std::size_t query_index) {
  const std::size_t n = ctas_.size();
  const std::vector<NodeId> entries =
      select_entry_points(g_, n, seed_, query_index);
  visited_.clear();  // functional clear; the CTAs charge the modeled one
  for (std::size_t c = 0; c < n; ++c) {
    ctas_[c].reset(query, c < entries.size() ? entries[c] : kInvalidNode,
                   &visited_);
    pending_[c] = {0.0, c, true, true};
    charges_[c].clear();
  }
  std::uint64_t next_rank = n;
  for (std::size_t live = n; live > 0;) {
    // The earliest pending event, the earliest scheduled on a tie.
    std::size_t c = n;
    for (std::size_t k = 0; k < n; ++k) {
      const Pending& p = pending_[k];
      if (!p.live) continue;
      if (c == n || p.at < pending_[c].at ||
          (p.at == pending_[c].at && p.rank < pending_[c].rank)) {
        c = k;
      }
    }
    Pending& p = pending_[c];
    IntraCtaSearch& cta = ctas_[c];
    StepCost cost;  // stays zero when the CTA ended at reset
    cta.step(cost);
    charges_[c].push_back(cost.total_ns());
    if (cta.done()) {
      const auto cand = cta.candidates();
      std::copy(cand.begin(), cand.end(), results_.begin() + c * run_len_);
      p.live = false;
      --live;
    } else {
      double elapsed = cm_.poll_local_ns;  // the event's state poll
      charge_work(&elapsed, cm_, p.first, clear_words_, cost.total_ns());
      p.at = p.at + elapsed;
      p.rank = next_rank++;
    }
    p.first = false;
  }

  MultiCtaResult res;
  res.run_len = run_len_;
  res.round_begin.push_back(0);
  for (std::size_t c = 0; c < n; ++c) {
    const SearchStats& st = ctas_[c].stats();
    res.per_cta_total.rounds += st.rounds;
    res.per_cta_total.expanded_points += st.expanded_points;
    res.per_cta_total.scored_points += st.scored_points;
    res.per_cta_total.cost += st.cost;
    res.per_cta_ns.push_back(st.cost.total_ns());
    res.critical_path_ns = std::max(res.critical_path_ns, st.cost.total_ns());
    res.rounds_max = std::max(res.rounds_max, st.rounds);
    res.round_ns.insert(res.round_ns.end(), charges_[c].begin(),
                        charges_[c].end());
    res.round_begin.push_back(res.round_ns.size());
  }
  res.topk = merge_sorted_runs(results_, n, run_len_, topk_, accept_);
  return res;
}

MultiCtaResult multi_cta_search(const Dataset& ds, const Graph& g,
                                const sim::CostModel& cm,
                                const SearchConfig& cfg, std::size_t num_ctas,
                                std::span<const float> query,
                                std::size_t query_index, std::uint64_t seed) {
  return MultiCtaSearch(ds, g, cm, cfg, num_ctas, seed).run(query,
                                                            query_index);
}

}  // namespace algas::search
