// Multi-CTA search (§IV-B): T CTAs cooperate on one query, each with a
// private candidate list, sharing only the visited table. Entry points are
// distinct pseudo-random nodes.
//
// MultiCtaSearch is the one multi-CTA driver. It runs a query's CTAs in a
// query-local event loop in the DES engine's order: every CTA is reset at
// the shared wake, in CTA order, and then the earliest pending event runs,
// ties broken by the order the events were scheduled. Instants are
// relative to the wake and advance by exactly what CtaActor::step charges
// an event (the state poll, then charge_work). The order of the rounds
// decides which CTA claims a node in the shared visited table, so the
// search depends on the query alone: not on when the host wrote Work, on
// the slot's history or on the thread that runs it. multi_cta_search runs
// the loop synchronously (the static baselines, tests, perfbench's
// replay); the DES engines run it as each slot's core::SearchJob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "search/intra_cta.hpp"
#include "search/topk_merge.hpp"

namespace algas::search {

/// Choose `count` distinct entry points for (query_index, cta) pairs. The
/// first entry is the graph's tuned entry point; the rest are splitmix
/// hashes of (seed, query_index, cta) — the CAGRA-style random entries.
std::vector<NodeId> select_entry_points(const Graph& g, std::size_t count,
                                        std::uint64_t seed,
                                        std::size_t query_index);

/// Per-CTA share of the visited-bitmap clear (in 64-bit words) when
/// `n_parallel` CTAs split a bitmap over `num_base` nodes. Every CTA charges
/// this many words of `bitmap_clear_per_word_ns` at query start.
std::size_t visited_clear_words(std::size_t num_base, std::size_t n_parallel);

/// One event of one CTA in the loop.
struct CtaRound {
  StepCost cost;  ///< the round's cost; zero when !stepped
  std::uint32_t cta = 0;
  bool stepped = false;  ///< a round ran (false: the CTA ended at reset)
  bool done = false;     ///< the CTA's search ended at this event
};

/// What a CTA's Work event charges after its state poll, added to *elapsed
/// left to right: the start-of-query set-up on the CTA's first event (§IV-B
/// step 1: loading the query, clearing this CTA's share of the visited
/// bitmap), then the round. CtaActor::step and the loop both call it.
void charge_work(double* elapsed, const sim::CostModel& cm, bool first,
                 std::size_t clear_words, const CtaRound& round);

/// One query's T CTAs over a shared visited table, reused across queries.
class MultiCtaSearch {
 public:
  MultiCtaSearch(const Dataset& ds, const Graph& g, const sim::CostModel& cm,
                 const SearchConfig& cfg, std::size_t num_ctas,
                 std::uint64_t seed);

  /// Starts a query: clears the visited table and resets every CTA at its
  /// entry point, in CTA order. A graph with fewer nodes than CTAs yields
  /// fewer entry points; a CTA without one ends with an empty list.
  void start(std::span<const float> query, std::size_t query_index);

  /// Runs the next event: the earliest pending one, the earliest scheduled
  /// on a tie. A CTA that ends writes its list into its stripe of
  /// results(). Call only while !done().
  CtaRound advance();

  /// Every CTA has ended.
  bool done() const { return live_ == 0; }

  std::size_t num_ctas() const { return ctas_.size(); }
  /// Candidate list length L of every CTA (the normalized config's).
  std::size_t run_len() const { return run_len_; }
  /// The result block: num_ctas() stripes of run_len() entries, each CTA's
  /// sorted list; a stripe is valid once its CTA has ended.
  std::span<const KV> results() const { return results_; }
  /// A CTA's search stats; final once it has ended.
  const SearchStats& stats(std::size_t cta) const {
    return ctas_[cta].stats();
  }
  /// Rounds, expanded and scored points and cost, summed over the CTAs in
  /// CTA order from zero, once every CTA has ended.
  SearchStats totals() const;

 private:
  /// A CTA's next event.
  struct Pending {
    double at = 0.0;         ///< instant, relative to the wake
    std::uint64_t rank = 0;  ///< schedule order, the tie rule at `at`
    bool first = true;       ///< the CTA's first event of the query
    bool live = false;
  };

  const Graph& g_;
  sim::CostModel cm_;
  std::uint64_t seed_;
  std::size_t run_len_;
  std::size_t clear_words_;
  std::vector<IntraCtaSearch> ctas_;
  StampedSet visited_;
  std::vector<KV> results_;
  std::vector<Pending> pending_;
  std::uint64_t next_rank_ = 0;
  std::size_t live_ = 0;
};

struct MultiCtaResult {
  std::vector<KV> topk;              ///< merged, ascending
  SearchStats per_cta_total;         ///< summed across CTAs
  std::vector<double> per_cta_ns;    ///< modeled search time of each CTA
  std::size_t run_len = 0;           ///< candidate list length per CTA
  /// Modeled wall time of the slowest CTA — what the slot's latency would
  /// be with perfectly concurrent CTAs (excludes merge).
  double critical_path_ns = 0.0;
  std::size_t rounds_max = 0;
};

/// Runs one query's MultiCtaSearch to the end on the calling thread and
/// host-merges the CTAs' lists.
MultiCtaResult multi_cta_search(const Dataset& ds, const Graph& g,
                                const sim::CostModel& cm,
                                const SearchConfig& cfg, std::size_t num_ctas,
                                std::span<const float> query,
                                std::size_t query_index, std::uint64_t seed);

}  // namespace algas::search
