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
// replay); the DES engines run it ahead of dispatch on the build executor
// (core/search_ahead.hpp) and replay each CTA's round charges.
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

/// What a CTA's Work event charges after its state poll, added to *elapsed
/// left to right: the start-of-query set-up on the CTA's first event (§IV-B
/// step 1: loading the query, clearing this CTA's share of the visited
/// bitmap), then the event's round, `round_ns` (0 when no round ran).
/// CtaActor::step and the loop both call it.
void charge_work(double* elapsed, const sim::CostModel& cm, bool first,
                 std::size_t clear_words, double round_ns);

struct MultiCtaResult {
  std::vector<KV> topk;              ///< merged, ascending
  SearchStats per_cta_total;         ///< summed across CTAs
  std::vector<double> per_cta_ns;    ///< modeled search time of each CTA
  std::size_t run_len = 0;           ///< candidate list length per CTA
  /// Modeled wall time of the slowest CTA — what the slot's latency would
  /// be with perfectly concurrent CTAs (excludes merge).
  double critical_path_ns = 0.0;
  std::size_t rounds_max = 0;
  /// Every CTA's events in order, CTA-major: CTA c's k-th event charges
  /// round_ns[round_begin[c] + k] (0 when no round ran), and its last one
  /// ends its search. round_begin holds num_ctas + 1 offsets.
  std::vector<double> round_ns;
  std::vector<std::size_t> round_begin;
};

/// One query's T CTAs over a shared visited table. An instance keeps only
/// scratch between queries, so one per searching thread serves any query.
class MultiCtaSearch {
 public:
  MultiCtaSearch(const Dataset& ds, const Graph& g, const sim::CostModel& cm,
                 const SearchConfig& cfg, std::size_t num_ctas,
                 std::uint64_t seed);

  /// Runs the query's search to the end on the calling thread and
  /// host-merges the CTAs' lists into the config's TopK. A graph with fewer
  /// nodes than CTAs yields fewer entry points; a CTA without one ends at
  /// reset with an empty list.
  MultiCtaResult run(std::span<const float> query, std::size_t query_index);

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
  std::size_t topk_;
  AcceptPredicate accept_;
  std::size_t run_len_;
  std::size_t clear_words_;
  std::vector<IntraCtaSearch> ctas_;
  StampedSet visited_;
  std::vector<KV> results_;  ///< one stripe of run_len_ per CTA
  std::vector<Pending> pending_;
  std::vector<std::vector<double>> charges_;  ///< each CTA's event charges
};

/// MultiCtaSearch(...).run(query, query_index): one query's search on the
/// calling thread.
MultiCtaResult multi_cta_search(const Dataset& ds, const Graph& g,
                                const sim::CostModel& cm,
                                const SearchConfig& cfg, std::size_t num_ctas,
                                std::span<const float> query,
                                std::size_t query_index, std::uint64_t seed);

}  // namespace algas::search
