#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hpp"
#include "metrics/collector.hpp"
#include "metrics/recall.hpp"
#include "metrics/table.hpp"
#include "test_util.hpp"

namespace algas::metrics {
namespace {

// ---------------- recall.hpp ----------------

Dataset dataset_with_gt() {
  Dataset ds("gt", 1, Metric::kL2);
  ds.set_base({0.0f, 1.0f, 2.0f, 3.0f});
  ds.mutable_queries() = {0.1f};
  // truth for query 0: 0, 1, 2 (k=3)
  ds.set_ground_truth({0, 1, 2}, 3);
  return ds;
}

TEST(Recall, ExactAndPartial) {
  const Dataset ds = dataset_with_gt();
  std::vector<KV> perfect{KV::make(0.1f, 0), KV::make(0.9f, 1),
                          KV::make(1.9f, 2)};
  EXPECT_DOUBLE_EQ(recall_at_k(ds, 0, perfect, 3), 1.0);

  std::vector<KV> partial{KV::make(0.1f, 0), KV::make(2.9f, 3),
                          KV::make(1.9f, 2)};
  EXPECT_DOUBLE_EQ(recall_at_k(ds, 0, partial, 3), 2.0 / 3.0);

  std::vector<KV> wrong{KV::make(2.9f, 3)};
  EXPECT_DOUBLE_EQ(recall_at_k(ds, 0, wrong, 3), 0.0);
}

TEST(Recall, OnlyFirstKResultsCount) {
  const Dataset ds = dataset_with_gt();
  // Result list longer than k: extras must not inflate recall.
  std::vector<KV> padded{KV::make(2.9f, 3), KV::make(0.1f, 0),
                         KV::make(0.9f, 1), KV::make(1.9f, 2)};
  EXPECT_DOUBLE_EQ(recall_at_k(ds, 0, padded, 2), 0.5);
}

TEST(Recall, ThrowsWithoutGroundTruth) {
  Dataset ds("nogt", 1, Metric::kL2);
  ds.set_base({0.0f});
  ds.mutable_queries() = {0.0f};
  std::vector<KV> res{KV::make(0.0f, 0)};
  EXPECT_THROW(recall_at_k(ds, 0, res, 1), std::logic_error);
}

TEST(Recall, ThrowsBeyondGtDepth) {
  const Dataset ds = dataset_with_gt();
  std::vector<KV> res{KV::make(0.0f, 0)};
  EXPECT_THROW(recall_at_k(ds, 0, res, 10), std::invalid_argument);
}

TEST(Recall, MeanOverQueries) {
  Dataset ds("gt2", 1, Metric::kL2);
  ds.set_base({0.0f, 1.0f});
  ds.mutable_queries() = {0.0f, 1.0f, 0.5f};
  ds.set_ground_truth({0, 1, 0}, 1);  // q0 -> 0, q1 -> 1, q2 -> 0
  Collector col;
  EXPECT_DOUBLE_EQ(served_recall(ds, col, 1), 0.0);  // nothing served
  for (std::size_t q = 0; q < 2; ++q) {
    QueryRecord rec;
    rec.query_index = q;
    rec.results = {KV::make(0.0f, 0)};
    col.add(rec);
  }
  // A shed query returned nothing; it must not count as a recall of 0.
  QueryRecord shed;
  shed.query_index = 2;
  shed.disposition = Disposition::kShedQueue;
  col.add(shed);
  EXPECT_DOUBLE_EQ(served_recall(ds, col, 1), 0.5);
  // The same average against an explicit truth matrix (row stride k).
  const std::vector<NodeId> truth{0, 1, 0};
  EXPECT_DOUBLE_EQ(served_recall(truth, col, 1), 0.5);
}

// ---------------- collector.hpp ----------------

QueryRecord make_record(std::size_t idx, double arrival, double dispatch,
                        double done, std::size_t steps) {
  QueryRecord r;
  r.query_index = idx;
  r.arrival_ns = arrival;
  r.dispatch_ns = dispatch;
  r.done_ns = done;
  r.steps = steps;
  return r;
}

TEST(Collector, SummaryBasics) {
  Collector c;
  c.add(make_record(0, 0.0, 10.0, 1010.0, 30));
  c.add(make_record(1, 0.0, 20.0, 2020.0, 50));
  const auto s = c.summarize();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_DOUBLE_EQ(s.span_ns, 2020.0);
  EXPECT_NEAR(s.throughput_qps, 2.0 * 1e9 / 2020.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.mean_latency_us, (1.010 + 2.020) / 2.0);
  EXPECT_DOUBLE_EQ(s.mean_service_us, (1.000 + 2.000) / 2.0);
  EXPECT_DOUBLE_EQ(s.mean_steps, 40.0);
  EXPECT_DOUBLE_EQ(s.max_steps, 50.0);
}

TEST(Collector, SortFractionFromGpuCost) {
  Collector c;
  auto r = make_record(0, 0.0, 0.0, 100.0, 1);
  r.gpu_cost.compute_ns = 70.0;
  r.gpu_cost.sort_ns = 30.0;
  c.add(r);
  const auto s = c.summarize();
  EXPECT_DOUBLE_EQ(s.sort_fraction, 0.3);
  EXPECT_DOUBLE_EQ(s.compute_fraction, 0.7);
}

TEST(Collector, BubbleWaste) {
  Collector c;
  c.add(make_record(0, 0.0, 0.0, 1.0, 1));
  c.add_batch_idle(25.0, 100.0);
  EXPECT_DOUBLE_EQ(c.summarize().bubble_waste, 0.25);
}

TEST(Collector, SortedLatenciesAscending) {
  // Dispatch lags arrival by 500ns so latency (arrival -> done) and service
  // (dispatch -> done) are distinguishable — the old implementation returned
  // service times from sorted_latencies_us().
  Collector c;
  c.add(make_record(0, 0.0, 500.0, 5000.0, 1));
  c.add(make_record(1, 0.0, 500.0, 1000.0, 1));
  c.add(make_record(2, 0.0, 500.0, 3000.0, 1));
  const auto v = c.sorted_latencies_us();
  EXPECT_EQ(v, (std::vector<double>{1.0, 3.0, 5.0}));
}

TEST(Collector, SortedServiceExcludesQueueing) {
  Collector c;
  c.add(make_record(0, 0.0, 500.0, 5000.0, 1));
  c.add(make_record(1, 0.0, 500.0, 1000.0, 1));
  c.add(make_record(2, 0.0, 500.0, 3000.0, 1));
  const auto v = c.sorted_service_us();
  EXPECT_EQ(v, (std::vector<double>{0.5, 2.5, 4.5}));
}

TEST(Collector, EmptySummaryIsZero) {
  Collector c;
  const auto s = c.summarize();
  EXPECT_EQ(s.queries, 0u);
  EXPECT_EQ(s.throughput_qps, 0.0);
}

TEST(Collector, ClearResets) {
  Collector c;
  c.add(make_record(0, 0.0, 0.0, 1.0, 1));
  c.add_batch_idle(10.0, 10.0);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_DOUBLE_EQ(c.summarize().bubble_waste, 0.0);
}

TEST(Collector, MergeAppendsRecordsAndSumsBatchIdle) {
  Collector a;
  a.add(make_record(0, 0.0, 10.0, 1010.0, 30));
  a.add_batch_idle(10.0, 100.0);
  Collector b;
  b.add(make_record(1, 0.0, 20.0, 2020.0, 50));
  b.add_batch_idle(15.0, 100.0);

  // Reference: the union of the samples in one collector.
  Collector both;
  both.add(make_record(0, 0.0, 10.0, 1010.0, 30));
  both.add(make_record(1, 0.0, 20.0, 2020.0, 50));
  both.add_batch_idle(25.0, 200.0);

  a.merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.records()[0].query_index, 0u);
  EXPECT_EQ(a.records()[1].query_index, 1u);
  const auto got = a.summarize();
  const auto want = both.summarize();
  EXPECT_DOUBLE_EQ(got.span_ns, want.span_ns);
  EXPECT_DOUBLE_EQ(got.mean_latency_us, want.mean_latency_us);
  EXPECT_DOUBLE_EQ(got.mean_steps, want.mean_steps);
  EXPECT_DOUBLE_EQ(got.bubble_waste, want.bubble_waste);
}

TEST(Collector, MergeFromEmptyAndIntoEmpty) {
  Collector a;
  Collector b;
  b.add(make_record(7, 0.0, 0.0, 100.0, 3));
  a.merge(b);             // into empty
  a.merge(Collector{});   // from empty
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.records()[0].query_index, 7u);
}

QueryRecord disposed_record(std::size_t idx, double arrival, double done,
                            Disposition d, double deadline) {
  QueryRecord r = make_record(idx, arrival, arrival, done, 10);
  r.disposition = d;
  r.deadline_ns = deadline;
  return r;
}

TEST(Collector, SummarizeMixedDispositions) {
  // One of each outcome. Counting rules under test: distributions cover
  // served queries only, every record counts toward span/shed_rate, and
  // goodput counts only served-AND-in-deadline completions.
  Collector c;
  c.add(disposed_record(0, 0.0, 1000.0, Disposition::kServed, 2000.0));
  c.add(disposed_record(1, 100.0, 4000.0, Disposition::kServed, 2000.0));
  c.add(disposed_record(2, 200.0, 300.0, Disposition::kShedQueue, 2000.0));
  c.add(disposed_record(3, 300.0, 400.0, Disposition::kShedDeadline, 350.0));
  c.add(disposed_record(4, 400.0, 2000.0, Disposition::kEvicted, 1800.0));
  const auto s = c.summarize();
  EXPECT_EQ(s.queries, 5u);
  EXPECT_EQ(s.served, 2u);
  EXPECT_EQ(s.shed_queue, 1u);
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.evicted, 1u);
  // q1 finished past its deadline; sheds/evictions never meet theirs.
  EXPECT_EQ(s.deadline_misses, 4u);
  EXPECT_DOUBLE_EQ(s.deadline_miss_rate, 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.shed_rate, 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.span_ns, 4000.0);  // first arrival 0 -> last done 4000
  EXPECT_DOUBLE_EQ(s.throughput_qps, 2.0 * 1e9 / 4000.0);
  EXPECT_DOUBLE_EQ(s.goodput_qps, 1.0 * 1e9 / 4000.0);  // only q0 in time
  // Latency stats are over the two served records (1.0us and 3.9us).
  EXPECT_DOUBLE_EQ(s.mean_latency_us, (1.0 + 3.9) / 2.0);
  EXPECT_EQ(c.sorted_latencies_us().size(), 2u);
  EXPECT_EQ(c.sorted_service_us().size(), 2u);
}

TEST(Collector, AllShedSummaryHasNoDistributions) {
  Collector c;
  c.add(disposed_record(0, 0.0, 100.0, Disposition::kShedQueue, 50.0));
  c.add(disposed_record(1, 10.0, 200.0, Disposition::kShedDeadline, 60.0));
  const auto s = c.summarize();
  EXPECT_EQ(s.served, 0u);
  EXPECT_DOUBLE_EQ(s.shed_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.goodput_qps, 0.0);
  EXPECT_DOUBLE_EQ(s.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_latency_us, 0.0);
  EXPECT_DOUBLE_EQ(s.p999_latency_us, 0.0);
  EXPECT_TRUE(c.sorted_latencies_us().empty());
}

TEST(Collector, InfiniteDeadlineShedIsNotADeadlineMiss) {
  // A bounded-queue run with deadlines disabled sheds on capacity, not on
  // time: those records carry the infinite default deadline and must not
  // inflate deadline_miss_rate. A served-but-late record with a finite
  // deadline still counts.
  const double inf = std::numeric_limits<double>::infinity();
  Collector c;
  c.add(disposed_record(0, 0.0, 100.0, Disposition::kShedQueue, inf));
  c.add(disposed_record(1, 0.0, 1000.0, Disposition::kServed, inf));
  c.add(disposed_record(2, 0.0, 2000.0, Disposition::kServed, 1500.0));
  const auto s = c.summarize();
  EXPECT_EQ(s.deadline_misses, 1u);  // only q2: finite deadline, done late
  EXPECT_DOUBLE_EQ(s.deadline_miss_rate, 1.0 / 3.0);
  EXPECT_EQ(s.shed_queue, 1u);
  EXPECT_DOUBLE_EQ(s.shed_rate, 1.0 / 3.0);
}

TEST(Collector, MergePreservesDispositionCounts) {
  Collector a;
  a.add(disposed_record(0, 0.0, 1000.0, Disposition::kServed, 2000.0));
  a.add(disposed_record(1, 50.0, 90.0, Disposition::kShedQueue, 500.0));
  Collector b;
  b.add(disposed_record(2, 100.0, 3000.0, Disposition::kEvicted, 900.0));
  a.merge(b);
  const auto s = a.summarize();
  EXPECT_EQ(s.queries, 3u);
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.shed_queue, 1u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_DOUBLE_EQ(s.shed_rate, 2.0 / 3.0);
}

// ---------------- stats.hpp (Histogram) ----------------

TEST(Histogram, MergeSumsUnderflowAndOverflow) {
  // Regression: out-of-range counts must survive a merge — per-shard
  // latency histograms carry their tails through the gather.
  Histogram a(0.0, 10.0, 2);
  a.add(-1.0);           // underflow
  a.add(5.0);            // bin 1
  Histogram b(0.0, 10.0, 2);
  b.add(-2.0);           // underflow
  b.add(12.0);           // overflow
  b.add(99.0);           // overflow
  a.merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.underflow(), 2u);
  EXPECT_EQ(a.overflow(), 2u);
  EXPECT_EQ(a.bin_count(0), 0u);
  EXPECT_EQ(a.bin_count(1), 1u);
  // Out-of-range rows must also surface in the TSV dump.
  const std::string tsv = a.to_tsv();
  EXPECT_NE(tsv.find("-inf"), std::string::npos) << tsv;
  EXPECT_NE(tsv.find("inf"), std::string::npos) << tsv;
}

TEST(Histogram, MergeRejectsMismatchedGeometry) {
  Histogram a(0.0, 10.0, 2);
  Histogram bins(0.0, 10.0, 4);
  Histogram range(0.0, 20.0, 2);
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

// ---------------- table.hpp ----------------

TEST(TsvTable, PrintsHeaderAndRows) {
  TsvTable t({"a", "b", "c"});
  t.row().cell(std::string("x")).cell(1.23456, 2).cell(std::size_t{7});
  std::ostringstream out;
  t.print(out);
  EXPECT_EQ(out.str(), "a\tb\tc\nx\t1.23\t7\n");
}

TEST(TsvTable, RaggedRowThrows) {
  TsvTable t({"a", "b"});
  t.row().cell(std::string("only-one"));
  std::ostringstream out;
  EXPECT_THROW(t.print(out), std::logic_error);
}

TEST(TsvTable, MetaComment) {
  std::ostringstream out;
  print_meta(out, "dataset", "sift");
  EXPECT_EQ(out.str(), "# dataset: sift\n");
}

}  // namespace
}  // namespace algas::metrics
