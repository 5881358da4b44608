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
                 std::size_t clear_words, const CtaRound& round) {
  if (first) {
    *elapsed += cm.cta_start_ns + static_cast<double>(clear_words) *
                                      cm.bitmap_clear_per_word_ns;
  }
  if (round.stepped) *elapsed += round.cost.total_ns();
}

MultiCtaSearch::MultiCtaSearch(const Dataset& ds, const Graph& g,
                               const sim::CostModel& cm,
                               const SearchConfig& cfg, std::size_t num_ctas,
                               std::uint64_t seed)
    : g_(g),
      cm_(cm),
      seed_(seed),
      run_len_(normalize_config(cfg, g.degree()).candidate_len),
      clear_words_(visited_clear_words(ds.num_base(), num_ctas)),
      visited_(ds.num_base()),
      results_(num_ctas * run_len_, KV::empty()),
      pending_(num_ctas) {
  ctas_.reserve(num_ctas);
  for (std::size_t c = 0; c < num_ctas; ++c) {
    ctas_.emplace_back(ds, g, cm, cfg);
  }
}

void MultiCtaSearch::start(std::span<const float> query,
                           std::size_t query_index) {
  const std::vector<NodeId> entries =
      select_entry_points(g_, ctas_.size(), seed_, query_index);
  visited_.clear();  // functional clear; the CTAs charge the modeled one
  for (std::size_t c = 0; c < ctas_.size(); ++c) {
    ctas_[c].reset(query, c < entries.size() ? entries[c] : kInvalidNode,
                   &visited_);
    pending_[c] = {0.0, c, true, true};
  }
  next_rank_ = ctas_.size();
  live_ = ctas_.size();
}

CtaRound MultiCtaSearch::advance() {
  std::size_t c = ctas_.size();
  for (std::size_t k = 0; k < ctas_.size(); ++k) {
    const Pending& p = pending_[k];
    if (!p.live) continue;
    if (c == ctas_.size() || p.at < pending_[c].at ||
        (p.at == pending_[c].at && p.rank < pending_[c].rank)) {
      c = k;
    }
  }
  Pending& p = pending_[c];
  IntraCtaSearch& cta = ctas_[c];
  CtaRound round;
  round.cta = static_cast<std::uint32_t>(c);
  round.stepped = cta.step(round.cost);
  round.done = cta.done();
  if (round.done) {
    const auto cand = cta.candidates();
    std::copy(cand.begin(), cand.end(), results_.begin() + c * run_len_);
    p.live = false;
    --live_;
  } else {
    double elapsed = 0.0;
    elapsed += cm_.poll_local_ns;  // the event's state poll
    charge_work(&elapsed, cm_, p.first, clear_words_, round);
    p.at = p.at + elapsed;
    p.rank = next_rank_++;
  }
  p.first = false;
  return round;
}

SearchStats MultiCtaSearch::totals() const {
  SearchStats sum;
  for (const IntraCtaSearch& cta : ctas_) {
    const SearchStats& st = cta.stats();
    sum.rounds += st.rounds;
    sum.expanded_points += st.expanded_points;
    sum.scored_points += st.scored_points;
    sum.cost += st.cost;
  }
  return sum;
}

MultiCtaResult multi_cta_search(const Dataset& ds, const Graph& g,
                                const sim::CostModel& cm,
                                const SearchConfig& cfg, std::size_t num_ctas,
                                std::span<const float> query,
                                std::size_t query_index, std::uint64_t seed) {
  MultiCtaSearch search(ds, g, cm, cfg, num_ctas, seed);
  search.start(query, query_index);
  while (!search.done()) search.advance();

  MultiCtaResult res;
  res.run_len = search.run_len();
  res.per_cta_total = search.totals();
  for (std::size_t c = 0; c < search.num_ctas(); ++c) {
    const SearchStats& st = search.stats(c);
    res.per_cta_ns.push_back(st.cost.total_ns());
    res.critical_path_ns =
        std::max(res.critical_path_ns, st.cost.total_ns());
    res.rounds_max = std::max(res.rounds_max, st.rounds);
  }
  res.topk = merge_sorted_runs(search.results(), search.num_ctas(),
                               search.run_len(), cfg.topk, cfg.accept);
  return res;
}

}  // namespace algas::search
