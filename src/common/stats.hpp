// Summary statistics over samples: mean, stddev, percentiles, histograms.
// Used for latency distributions (Figs 1, 2, 13) and waste-rate accounting.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace algas {

/// Accumulates scalar samples and answers distribution queries.
/// Percentile queries sort lazily; appending invalidates the sort.
class SampleStats {
 public:
  void add(double v);
  void clear();

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// p in [0, 100]. Linear interpolation between closest ranks.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Samples in ascending order (forces the lazy sort).
  const std::vector<double>& sorted() const;

  /// Raw samples in insertion order.
  const std::vector<double>& raw() const { return samples_; }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
  // Running extrema: min()/max() must not force the lazy percentile sort.
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi). Out-of-range samples are counted
/// separately as underflow/overflow — not silently clamped into the edge
/// bins, which would fabricate mass at the range boundaries.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double v);

  /// Combine another histogram into this one. Requires identical geometry
  /// (lo, hi, bin count) — throws std::invalid_argument otherwise. Bin
  /// counts, total, underflow and overflow are summed, so combining
  /// per-shard histograms is exact, never a re-sample.
  void merge(const Histogram& other);

  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// All samples ever added, including out-of-range ones.
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }  ///< samples < lo
  std::size_t overflow() const { return overflow_; }    ///< samples >= hi

  /// One line per bin: "lo<TAB>hi<TAB>count<TAB>fraction". When any sample
  /// fell outside [lo, hi), trailing "-inf lo" / "hi inf" rows report the
  /// underflow/overflow counts. Fractions are of total().
  std::string to_tsv() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace algas
