#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace algas {

void SampleStats::add(double v) {
  if (samples_.empty()) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  samples_.push_back(v);
  sum_ += v;
  sorted_valid_ = false;
}

void SampleStats::clear() {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = false;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double SampleStats::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

const std::vector<double>& SampleStats::sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double SampleStats::min() const { return samples_.empty() ? 0.0 : min_; }

double SampleStats::max() const { return samples_.empty() ? 0.0 : max_; }

double SampleStats::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  if (s.size() == 1) return s[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, s.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double v) {
  ++total_;
  if (v < lo_) {
    ++underflow_;
    return;
  }
  const auto bin =
      static_cast<std::ptrdiff_t>(std::floor((v - lo_) / width_));
  if (bin >= static_cast<std::ptrdiff_t>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(bin)];
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.counts_.size() != counts_.size()) {
    throw std::invalid_argument(
        "Histogram::merge: geometry mismatch (lo/hi/bins must be equal)");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

std::string Histogram::to_tsv() const {
  std::ostringstream out;
  const auto frac_of_total = [this](std::size_t c) {
    return total_ == 0 ? 0.0
                       : static_cast<double>(c) / static_cast<double>(total_);
  };
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out << bin_lo(i) << '\t' << bin_hi(i) << '\t' << counts_[i] << '\t'
        << frac_of_total(counts_[i]) << '\n';
  }
  if (underflow_ > 0) {
    out << "-inf\t" << lo_ << '\t' << underflow_ << '\t'
        << frac_of_total(underflow_) << '\n';
  }
  if (overflow_ > 0) {
    out << hi_ << "\tinf\t" << overflow_ << '\t' << frac_of_total(overflow_)
        << '\n';
  }
  return out.str();
}

}  // namespace algas
