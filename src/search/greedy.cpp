#include "search/greedy.hpp"

namespace algas::search {

GreedyResult greedy_search(const Dataset& ds, const Graph& g,
                           const sim::CostModel& cm, const SearchConfig& cfg,
                           std::span<const float> query) {
  SearchConfig greedy_cfg = cfg;
  greedy_cfg.beam_width = 1;  // Algorithm 1 is strictly greedy

  IntraCtaSearch cta(ds, g, cm, greedy_cfg);
  cta.enable_trace(true);
  StampedSet visited(ds.num_base());
  cta.reset(query, g.entry_point(), &visited);

  StepCost cost;
  while (cta.step(cost)) {
  }

  GreedyResult res;
  res.topk = cta.results();
  res.stats = cta.stats();
  return res;
}

}  // namespace algas::search
