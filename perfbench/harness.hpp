// Measurement helpers of the benchmark: order statistics, miss accounting,
// result fingerprints and the span log. Everything here is plain arithmetic
// over values the workloads collect, so harness_test.cpp can pin it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "metrics/collector.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles with the same cut points as Python's
/// statistics.quantiles(v, n=4) (the default "exclusive" method), so the
/// spread this program prints is the spread a reader recomputes from a
/// list of runs. Needs at least two samples.
Quartiles quartiles(std::vector<double> v);

/// Samples needed before percentile `p` has at least ten samples strictly
/// above it (nearest rank): 1,000 for p99.
std::size_t samples_for_percentile(double p);

/// Nearest-rank percentile `p` of `v`. Throws std::invalid_argument when
/// fewer than ten samples lie beyond it, so a tail figure is never
/// reported from a sample too small to support it.
double tail_percentile(std::vector<double> v, double p);

/// A pass's sample with one value per attempted query: `served` (values of
/// the served queries) padded with `miss` for each of the other
/// `attempted - served.size()` queries (shed, evicted or lost). Misses so
/// raise the tail instead of shrinking the sample below what its p99
/// needs. A non-finite `miss` (no deadline to charge) charges the largest
/// served value. Throws std::invalid_argument if more were served than
/// attempted.
std::vector<double> pad_misses(std::vector<double> served,
                               std::size_t attempted, double miss);

// ---------------------------------------------------------------------------
// Miss accounting

/// Outcome of one pass's queries. A miss is any attempted query that was
/// not served within its deadline: sheds, evictions and lost queries (no
/// record delivered at all) all count. A partial answer — a sharded query
/// that some probed shards shed or evicted — is still served; it is
/// counted apart because it lowers recall rather than the miss rate.
struct MissCount {
  std::size_t attempted = 0;
  std::size_t delivered = 0;    ///< records returned (any disposition)
  std::size_t served = 0;       ///< disposition kServed
  std::size_t in_deadline = 0;  ///< served by the deadline
  std::size_t shed = 0;         ///< shed at admission or in the queue
  std::size_t evicted = 0;      ///< finished past the deadline, dropped
  std::size_t lost = 0;         ///< attempted - delivered
  std::size_t partial = 0;      ///< served by fewer shards than probed

  std::size_t misses() const { return attempted - in_deadline; }
  double miss_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(misses()) /
                                static_cast<double>(attempted);
  }
};

/// Count outcomes of `merged` (one record per delivered query) against
/// `attempted` queries. `shard_records` holds every shard's per-query
/// record and `fanout` the shards each query probed; a served query with
/// fewer than `fanout` served shard records is a partial answer. With
/// fanout 1 there is nothing to be partial about and shard_records is
/// ignored.
MissCount count_misses(std::span<const algas::metrics::QueryRecord> merged,
                       std::span<const algas::metrics::QueryRecord> shard_records,
                       std::size_t attempted, std::size_t fanout);

// ---------------------------------------------------------------------------
// Fingerprints

/// FNV-1a, 64-bit, fed eight bytes at a time (little-endian).
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  void mix_float(float f) {
    std::uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(f));
    std::memcpy(&bits, &f, sizeof(bits));
    mix(bits);
  }
};

/// Checksum over (query, disposition, id, distance) of every record, in
/// query-index order, so it is independent of completion order.
std::uint64_t result_checksum(
    std::span<const algas::metrics::QueryRecord> records);

/// Checksum over every virtual-time stamp and count of every record, in
/// query-index order: equal fingerprints mean bit-identical modeled runs.
std::uint64_t virtual_checksum(
    std::span<const algas::metrics::QueryRecord> records);

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Span log

/// One timed call. `parent` indexes the enclosing span (-1 for a root);
/// `pass` and `query` identify the request (-1 when not per pass/query).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = -1.0;  ///< < start_s while the span is open
  int parent = -1;
  int pass = -1;
  int query = -1;

  double duration_s() const { return end_s - start_s; }
};

/// Spans kept in memory and written once, at exit, as Chrome trace-event
/// JSON (loadable in Perfetto). Single-threaded: spans nest in call order.
class SpanLog {
 public:
  SpanLog();

  /// Open a span under the innermost open span; returns its index.
  int begin(std::string name, int pass = -1, int query = -1);
  /// Close span `id` (must be the innermost open span).
  void end(int id);
  /// Append a finished span timed elsewhere, under span `parent` (-1: root).
  int add(std::string name, double start_s, double end_s, int parent,
          int pass = -1, int query = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// its direct children cover (overlapping children are counted once).
  std::vector<double> self_times() const;

  /// Seconds since this log was created (the time base of every span).
  double now() const;

  void write_chrome_json(const std::string& path,
                         const std::string& workload) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that does nothing when the log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int pass = -1, int query = -1)
      : log_(log), id_(log != nullptr ? log->begin(std::move(name), pass, query)
                                      : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Host

/// Wall-clock stopwatch (steady clock), in seconds.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();

/// Milliseconds one fixed reference loop takes on this host (probe.cpp,
/// compiled with pinned flags). Informational only: it tells a slow host
/// from a slow change and is never compared.
double host_probe_ms();

}  // namespace perfbench
