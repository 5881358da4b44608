// Tests of the benchmark's own arithmetic: order statistics, the p99
// sample-size rule, miss accounting (including partial K=4 answers), span
// self time and the result fingerprints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness.hpp"

namespace {

using algas::KV;
using algas::metrics::Disposition;
using algas::metrics::QueryRecord;
using perfbench::count_misses;
using perfbench::median;
using perfbench::quartiles;
using perfbench::SpanLog;

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
  q = quartiles({1, 2});  // cut points clamp and extrapolate, as Python's do
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = quartiles({5.0, 1.0, 4.0, 2.5, 3.0, 10.0, 7.0});
  EXPECT_DOUBLE_EQ(q.q1, 2.5);
  EXPECT_DOUBLE_EQ(q.q2, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(TailPercentile, P99NeedsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::samples_for_percentile(99.0), 1000u);
  EXPECT_EQ(perfbench::samples_for_percentile(99.9), 10000u);
  EXPECT_EQ(perfbench::samples_for_percentile(50.0), 20u);

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  const double p99 = perfbench::tail_percentile(v, 99.0);
  EXPECT_DOUBLE_EQ(p99, 990.0);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }),
            10);

  v.pop_back();  // 999 samples: only nine would lie beyond p99
  EXPECT_THROW(perfbench::tail_percentile(v, 99.0), std::invalid_argument);
  EXPECT_THROW(perfbench::samples_for_percentile(100.0), std::invalid_argument);
}

QueryRecord record(std::size_t q, Disposition d, double done_ns,
                   double deadline_ns) {
  QueryRecord r;
  r.query_index = q;
  r.disposition = d;
  r.done_ns = done_ns;
  r.deadline_ns = deadline_ns;
  if (d == Disposition::kServed) r.results = {KV::make(1.0f, 7)};
  return r;
}

TEST(MissCount, ShedEvictedLostAndLateAreMisses) {
  const std::vector<QueryRecord> merged = {
      record(0, Disposition::kServed, 100, 500),
      record(1, Disposition::kServed, 900, 500),  // served past its deadline
      record(2, Disposition::kShedQueue, 10, 500),
      record(3, Disposition::kEvicted, 700, 500),
      record(4, Disposition::kShedDeadline, 600, 500),
  };
  const auto c = count_misses(merged, {}, 6, 1);  // query 5 never returned
  EXPECT_EQ(c.delivered, 5u);
  EXPECT_EQ(c.served, 2u);
  EXPECT_EQ(c.in_deadline, 1u);
  EXPECT_EQ(c.shed, 2u);
  EXPECT_EQ(c.evicted, 1u);
  EXPECT_EQ(c.lost, 1u);
  EXPECT_EQ(c.partial, 0u);
  EXPECT_EQ(c.misses(), 5u);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 5.0 / 6.0);
}

TEST(MissCount, PartialK4AnswerIsServedButCounted) {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  const std::vector<QueryRecord> merged = {
      record(0, Disposition::kServed, 100, kNone),
      record(1, Disposition::kServed, 100, kNone),
      record(2, Disposition::kShedQueue, 100, kNone),
  };
  std::vector<QueryRecord> shards;
  for (int s = 0; s < 4; ++s) {
    shards.push_back(record(0, Disposition::kServed, 90, kNone));
    // Query 1: shard 3 shed its part, so the merged answer is partial.
    shards.push_back(record(1, s == 3 ? Disposition::kShedQueue
                                      : Disposition::kServed,
                            90, kNone));
    shards.push_back(record(2, Disposition::kShedQueue, 90, kNone));
  }
  const auto c = count_misses(merged, shards, 3, 4);
  EXPECT_EQ(c.served, 2u);
  EXPECT_EQ(c.in_deadline, 2u);  // a partial answer in time is no miss
  EXPECT_EQ(c.partial, 1u);
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.misses(), 1u);

  // With fanout 1 the shard records are not consulted.
  EXPECT_EQ(count_misses(merged, shards, 3, 1).partial, 0u);
  EXPECT_THROW(count_misses(merged, shards, 2, 4), std::invalid_argument);
}

// A pass of 1,000 arrivals with one query shed: the latency sample keeps
// one value per attempted query, so p99 is still defined, the miss counts
// at its deadline, and enough misses move p99 to the deadline.
TEST(MissCount, OneShedQueryKeepsTheP99Sample) {
  constexpr double kDeadline = 1000.0;
  std::vector<QueryRecord> merged;
  for (std::size_t q = 0; q < 1000; ++q) {
    merged.push_back(record(q, q == 5 ? Disposition::kShedQueue
                                      : Disposition::kServed,
                            10.0 + static_cast<double>(q % 10), kDeadline));
  }
  const auto c = count_misses(merged, {}, 1000, 1);
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.001);

  std::vector<double> served;
  for (const auto& r : merged) {
    if (r.served()) served.push_back(r.done_ns);
  }
  ASSERT_EQ(served.size(), 999u);
  EXPECT_THROW(perfbench::tail_percentile(served, 99.0), std::invalid_argument);
  auto sample = perfbench::pad_misses(served, c.attempted, kDeadline);
  ASSERT_EQ(sample.size(), 1000u);
  EXPECT_DOUBLE_EQ(*std::max_element(sample.begin(), sample.end()), kDeadline);
  EXPECT_DOUBLE_EQ(perfbench::tail_percentile(sample, 99.0), 19.0);

  // Eleven misses: the eleven slowest values now sit at the deadline.
  served.resize(989);
  sample = perfbench::pad_misses(served, 1000, kDeadline);
  EXPECT_DOUBLE_EQ(perfbench::tail_percentile(sample, 99.0), kDeadline);

  // No deadline to charge: a miss counts at the slowest served value.
  sample = perfbench::pad_misses({3.0, 9.0, 4.0}, 5,
                                 std::numeric_limits<double>::infinity());
  EXPECT_EQ(sample, (std::vector<double>{3.0, 9.0, 4.0, 9.0, 9.0}));
  EXPECT_THROW(perfbench::pad_misses({1.0, 2.0}, 1, kDeadline),
               std::invalid_argument);
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanLog log;
  const int parent = log.add("pass", 0.0, 10.0, -1);
  const int a = log.add("a", 1.0, 3.0, parent);
  log.add("b", 2.0, 5.0, parent);    // overlaps a: [1, 5] counted once
  log.add("c", 8.0, 12.0, parent);   // clipped to the parent's end
  log.add("a.child", 1.5, 2.0, a);   // counts against a, not the pass
  log.add("root", 20.0, 21.0, -1);
  const auto self = log.self_times();
  EXPECT_DOUBLE_EQ(self[parent], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[a], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
  EXPECT_THROW(log.add("bad", 2.0, 1.0, -1), std::invalid_argument);
}

TEST(SpanLog, NestingAndScopedSpans) {
  SpanLog log;
  const int outer = log.begin("outer", 1);
  const int inner = log.begin("inner", 1, 42);
  EXPECT_THROW(log.end(outer), std::logic_error);  // inner is still open
  log.end(inner);
  log.end(outer);
  {
    perfbench::ScopedSpan s(&log, "inner", 2);
    perfbench::ScopedSpan none(nullptr, "ignored");
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[inner].parent, outer);
  EXPECT_EQ(log.spans()[inner].query, 42);
  EXPECT_EQ(log.spans()[2].parent, -1);
  EXPECT_EQ(log.spans()[2].pass, 2);
  EXPECT_GE(log.spans()[inner].duration_s(), 0.0);
  EXPECT_GE(log.spans()[outer].start_s, 0.0);
  EXPECT_LE(log.spans()[outer].end_s, log.spans()[2].start_s);
}

TEST(Checksums, IndependentOfOrderSensitiveToEveryBit) {
  std::vector<QueryRecord> recs = {
      record(0, Disposition::kServed, 100, 500),
      record(1, Disposition::kServed, 200, 500),
  };
  std::vector<QueryRecord> swapped = {recs[1], recs[0]};
  EXPECT_EQ(perfbench::result_checksum(recs),
            perfbench::result_checksum(swapped));
  EXPECT_EQ(perfbench::virtual_checksum(recs),
            perfbench::virtual_checksum(swapped));

  auto moved = recs;
  moved[1].results[0].dist = std::nextafter(1.0f, 2.0f);
  EXPECT_NE(perfbench::result_checksum(recs), perfbench::result_checksum(moved));
  moved = recs;
  moved[0].done_ns = std::nextafter(100.0, 200.0);
  EXPECT_EQ(perfbench::result_checksum(recs), perfbench::result_checksum(moved));
  EXPECT_NE(perfbench::virtual_checksum(recs),
            perfbench::virtual_checksum(moved));
}

}  // namespace
