#include "metrics/collector.hpp"

#include <algorithm>
#include <cmath>

namespace algas::metrics {

void Collector::add(QueryRecord rec) { records_.push_back(std::move(rec)); }

void Collector::add_batch_idle(double idle_ns, double active_ns) {
  batch_idle_ns_ += idle_ns;
  batch_active_ns_ += active_ns;
}

void Collector::merge(const Collector& other) {
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
  batch_idle_ns_ += other.batch_idle_ns_;
  batch_active_ns_ += other.batch_active_ns_;
}

RunSummary Collector::summarize() const {
  RunSummary s;
  s.queries = records_.size();
  if (records_.empty()) return s;

  SampleStats latency;
  SampleStats service;
  SampleStats steps;
  double first_arrival = records_.front().arrival_ns;
  double last_done = records_.front().done_ns;
  double sort_ns = 0.0, compute_ns = 0.0, other_ns = 0.0;
  std::size_t in_deadline = 0;
  for (const auto& r : records_) {
    // The span covers every outcome (a shed query still occupied the
    // system until its shed instant); latency/service/step distributions
    // cover served queries only — a shed query has no completion.
    first_arrival = std::min(first_arrival, r.arrival_ns);
    last_done = std::max(last_done, r.done_ns);
    switch (r.disposition) {
      case Disposition::kServed: ++s.served; break;
      case Disposition::kShedQueue: ++s.shed_queue; break;
      case Disposition::kShedDeadline: ++s.shed_deadline; break;
      case Disposition::kEvicted: ++s.evicted; break;
    }
    if (r.in_deadline()) ++in_deadline;
    // A miss requires a deadline to miss: shed/evicted/late-served queries
    // with a FINITE deadline count; a query shed from a run with deadlines
    // disabled (infinite) is a shed, not a deadline miss.
    if (!r.in_deadline() && std::isfinite(r.deadline_ns)) ++s.deadline_misses;
    if (!r.served()) continue;
    latency.add(r.latency_ns() / 1000.0);
    service.add(r.service_ns() / 1000.0);
    steps.add(static_cast<double>(r.steps));
    sort_ns += r.gpu_cost.sort_ns;
    compute_ns += r.gpu_cost.compute_ns;
    other_ns += r.gpu_cost.select_ns + r.gpu_cost.gather_ns;
  }
  s.span_ns = last_done - first_arrival;
  if (s.span_ns > 0.0) {
    s.throughput_qps = static_cast<double>(s.served) * 1e9 / s.span_ns;
    s.goodput_qps = static_cast<double>(in_deadline) * 1e9 / s.span_ns;
  }
  s.shed_rate = static_cast<double>(s.queries - s.served) /
                static_cast<double>(s.queries);
  s.deadline_miss_rate = static_cast<double>(s.deadline_misses) /
                         static_cast<double>(s.queries);
  if (s.served == 0) return s;
  s.mean_latency_us = latency.mean();
  s.p50_latency_us = latency.percentile(50);
  s.p95_latency_us = latency.percentile(95);
  s.p99_latency_us = latency.percentile(99);
  s.p999_latency_us = latency.percentile(99.9);
  s.mean_service_us = service.mean();
  s.p50_service_us = service.percentile(50);
  s.p95_service_us = service.percentile(95);
  s.p99_service_us = service.percentile(99);
  s.p999_service_us = service.percentile(99.9);
  s.mean_steps = steps.mean();
  s.max_steps = steps.max();
  const double gpu_total = sort_ns + compute_ns + other_ns;
  if (gpu_total > 0.0) {
    s.sort_fraction = sort_ns / gpu_total;
    s.compute_fraction = compute_ns / gpu_total;
  }
  if (batch_active_ns_ > 0.0) {
    s.bubble_waste = batch_idle_ns_ / batch_active_ns_;
  }
  return s;
}

std::vector<double> Collector::sorted_latencies_us() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (r.served()) out.push_back(r.latency_ns() / 1000.0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> Collector::sorted_service_us() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (r.served()) out.push_back(r.service_ns() / 1000.0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Collector::clear() {
  records_.clear();
  batch_idle_ns_ = 0.0;
  batch_active_ns_ = 0.0;
}

}  // namespace algas::metrics
