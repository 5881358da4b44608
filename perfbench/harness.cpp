#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles(v, n=4, method="exclusive"), in exact integer
  // index arithmetic: cut i sits at position i*(len+1)/4.
  const long n = 4;
  const long len = static_cast<long>(v.size());
  const long m = len + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, len - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

namespace {

/// 1-based nearest rank of percentile p in a sample of n.
std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

std::size_t samples_for_percentile(double p) {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::invalid_argument("percentile must lie in (0, 100)");
  }
  std::size_t n = 1;
  while (n - nearest_rank(p, n) < 10) ++n;
  return n;
}

double tail_percentile(std::vector<double> v, double p) {
  const std::size_t need = samples_for_percentile(p);
  if (v.size() < need) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "p%g needs %zu samples for ten beyond it, got %zu", p, need,
                  v.size());
    throw std::invalid_argument(msg);
  }
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

std::vector<double> pad_misses(std::vector<double> served,
                               std::size_t attempted, double miss) {
  if (served.size() > attempted) {
    throw std::invalid_argument("more queries served than attempted");
  }
  if (!std::isfinite(miss)) {
    miss = served.empty() ? 0.0 : *std::max_element(served.begin(), served.end());
  }
  served.resize(attempted, miss);
  return served;
}

MissCount count_misses(std::span<const algas::metrics::QueryRecord> merged,
                       std::span<const algas::metrics::QueryRecord> shard_records,
                       std::size_t attempted, std::size_t fanout) {
  using algas::metrics::Disposition;
  MissCount c;
  c.attempted = attempted;
  c.delivered = merged.size();
  if (c.delivered > attempted) {
    throw std::invalid_argument("more records delivered than attempted");
  }
  c.lost = attempted - c.delivered;
  std::size_t max_query = 0;
  for (const auto& r : merged) max_query = std::max(max_query, r.query_index);
  std::vector<std::size_t> served_shards;
  if (fanout > 1) {
    served_shards.assign(max_query + 1, 0);
    for (const auto& r : shard_records) {
      if (r.served() && r.query_index <= max_query) {
        ++served_shards[r.query_index];
      }
    }
  }
  for (const auto& r : merged) {
    switch (r.disposition) {
      case Disposition::kServed:
        ++c.served;
        if (r.in_deadline()) ++c.in_deadline;
        if (fanout > 1 && served_shards[r.query_index] < fanout) ++c.partial;
        break;
      case Disposition::kShedQueue:
      case Disposition::kShedDeadline:
        ++c.shed;
        break;
      case Disposition::kEvicted:
        ++c.evicted;
        break;
    }
  }
  return c;
}

namespace {

std::vector<const algas::metrics::QueryRecord*> by_query(
    std::span<const algas::metrics::QueryRecord> records) {
  std::vector<const algas::metrics::QueryRecord*> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(&r);
  std::stable_sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->query_index < b->query_index;
  });
  return out;
}

}  // namespace

std::uint64_t result_checksum(
    std::span<const algas::metrics::QueryRecord> records) {
  Fnv f;
  for (const auto* r : by_query(records)) {
    f.mix(r->query_index);
    f.mix(static_cast<std::uint64_t>(r->disposition));
    f.mix(r->results.size());
    for (const auto& kv : r->results) {
      f.mix(kv.id());
      f.mix_float(kv.dist);
    }
  }
  return f.h;
}

std::uint64_t virtual_checksum(
    std::span<const algas::metrics::QueryRecord> records) {
  Fnv f;
  for (const auto* r : by_query(records)) {
    f.mix(r->query_index);
    f.mix(r->slot);
    f.mix_double(r->arrival_ns);
    f.mix_double(r->dispatch_ns);
    f.mix_double(r->gpu_done_ns);
    f.mix_double(r->done_ns);
    f.mix_double(r->deadline_ns);
    f.mix(r->priority);
    f.mix(static_cast<std::uint64_t>(r->disposition));
    f.mix(r->steps);
    f.mix(r->rounds);
    f.mix(r->scored_points);
    f.mix_double(r->gpu_cost.total_ns());
  }
  return f.h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

SpanLog::SpanLog() : t0_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int SpanLog::begin(std::string name, int pass, int query) {
  const int parent = open_.empty() ? -1 : open_.back();
  Span s;
  s.name = std::move(name);
  s.start_s = now();
  s.parent = parent;
  s.pass = pass;
  s.query = query;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s = now();
}

int SpanLog::add(std::string name, double start_s, double end_s, int parent,
                 int pass, int query) {
  if (end_s < start_s) throw std::invalid_argument("span ends before start");
  Span s;
  s.name = std::move(name);
  s.start_s = start_s;
  s.end_s = end_s;
  s.parent = parent;
  s.pass = pass;
  s.query = query;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> cover(spans_.size());
  for (const Span& c : spans_) {
    if (c.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(c.parent)];
    const double lo = std::max(c.start_s, p.start_s);
    const double hi = std::min(c.end_s, p.end_s);
    if (hi > lo) cover[static_cast<std::size_t>(c.parent)].emplace_back(lo, hi);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = cover[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = spans_[i].start_s;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = spans_[i].duration_s() - covered;
  }
  return out;
}

void SpanLog::write_chrome_json(const std::string& path,
                                const std::string& workload) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_times();
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":\"%s/p%d/q%d\",\"self_us\":%.3f}}",
                  s.name.c_str(), s.start_s * 1e6, s.duration_s() * 1e6, i,
                  s.parent, workload.c_str(), s.pass, s.query,
                  self[i] * 1e6);
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
