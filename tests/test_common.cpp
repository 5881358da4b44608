#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.hpp"
#include "common/env.hpp"
#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace algas {
namespace {

// ---------------- types.hpp ----------------

TEST(Types, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  const std::size_t top = std::size_t{1} << 63;
  EXPECT_EQ(next_pow2(top), top);
  // Above 2^63 no power of two fits: a throw, not an endless loop.
  EXPECT_THROW(next_pow2(top + 1), std::overflow_error);
  EXPECT_THROW(next_pow2(std::numeric_limits<std::size_t>::max()),
               std::overflow_error);
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(128, 32), 4u);
}

// ---------------- rng.hpp ----------------

TEST(Rng, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, FloatRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit over 1000 draws
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, Splitmix64Stateless) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

// ---------------- stats.hpp ----------------

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
}

TEST(SampleStats, EmptySafe) {
  SampleStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SampleStats, AppendInvalidatesSort) {
  SampleStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(SampleStats, ExtremaTrackedWithoutSort) {
  // min()/max() are running extrema: correct immediately after every add
  // and after clear(), without touching the lazy percentile sort.
  SampleStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  s.add(-7.0);
  s.add(11.0);
  EXPECT_DOUBLE_EQ(s.min(), -7.0);
  EXPECT_DOUBLE_EQ(s.max(), 11.0);
  s.clear();
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(Histogram, BinningAndOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // below range: counted as underflow, not clamped in
  h.add(42.0);   // above range: counted as overflow, not clamped in
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, UpperEdgeIsOverflow) {
  // [lo, hi) is half-open: a sample exactly at hi overflows.
  Histogram h(0.0, 4.0, 4);
  h.add(4.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(3), 0u);
}

TEST(Histogram, RejectsBadArgs) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, MergeSumsBinsAndOutOfRangeCounts) {
  Histogram a(0.0, 10.0, 10);
  a.add(0.5);
  a.add(-1.0);
  Histogram b(0.0, 10.0, 10);
  b.add(0.7);
  b.add(5.5);
  b.add(42.0);
  a.merge(b);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_EQ(a.bin_count(5), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.total(), 5u);
}

TEST(Histogram, MergeRejectsGeometryMismatch) {
  Histogram a(0.0, 10.0, 10);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 5)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(0.0, 20.0, 10)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(1.0, 10.0, 10)), std::invalid_argument);
}

TEST(Histogram, TsvHasOneLinePerBin) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  const std::string tsv = h.to_tsv();
  EXPECT_EQ(std::count(tsv.begin(), tsv.end(), '\n'), 4);
}

TEST(Histogram, TsvAppendsOutOfRangeRows) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  h.add(-1.0);
  h.add(99.0);
  const std::string tsv = h.to_tsv();
  // 4 bin rows + underflow row + overflow row.
  EXPECT_EQ(std::count(tsv.begin(), tsv.end(), '\n'), 6);
  EXPECT_NE(tsv.find("-inf\t0\t1\t"), std::string::npos);
  EXPECT_NE(tsv.find("4\tinf\t1\t"), std::string::npos);
}

// ---------------- node_set.hpp: NodeBitset ----------------

TEST(Bitset, SetTestReset) {
  NodeBitset b(200);
  EXPECT_FALSE(b.test(63));
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(199));
  EXPECT_FALSE(b.test(0));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, TestAndSetSemantics) {
  NodeBitset b(128);
  EXPECT_FALSE(b.test_and_set(77));
  EXPECT_TRUE(b.test_and_set(77));
  EXPECT_TRUE(b.test(77));
}

TEST(Bitset, ClearResetsAll) {
  NodeBitset b(1000);
  for (std::size_t i = 0; i < 1000; i += 7) b.set(i);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

// ---------------- thread_pool.hpp ----------------

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  // The throwing chunk can land on a worker thread or on the caller (the
  // caller runs the last chunk); both must surface at the call site.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesCallerChunkException) {
  ThreadPool pool(4);
  // The caller always runs the final chunk: throw only there.
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t, std::size_t e) {
                                   if (e == 1000) {
                                     throw std::runtime_error("tail failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   100, [](std::size_t, std::size_t) { throw 42; }),
               int);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRejected) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> nested_throws{0};
  outer.parallel_for(8, [&](std::size_t, std::size_t) {
    try {
      inner.parallel_for(4, [](std::size_t, std::size_t) {});
    } catch (const std::logic_error&) {
      nested_throws.fetch_add(1);
    }
  });
  EXPECT_GT(nested_throws.load(), 0);
}

TEST(ThreadPool, StressManyParallelForRounds) {
  ThreadPool pool(8);
  std::vector<std::atomic<std::uint64_t>> sums(64);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sums[i].fetch_add(i);
    });
  }
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i].load(), 200u * i);
  }
}

TEST(ThreadPool, PostRunsTheTaskOnAWorker) {
  ThreadPool pool(2);
  TaskGroup group;
  std::promise<std::thread::id> ran;
  auto where = ran.get_future();
  pool.post(group, [&ran] { ran.set_value(std::this_thread::get_id()); });
  EXPECT_NE(where.get(), std::this_thread::get_id());
  group.wait();
}

TEST(ThreadPool, TaskGroupWaitsForEveryPostedTask) {
  ThreadPool pool(3);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.post(group, [&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 200);
  group.wait();  // an empty group does not block
}

TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnChunks) {
  // A posted task still running (an engine's search) must not hold up
  // a parallel_for on the same pool.
  ThreadPool pool(2);
  TaskGroup group;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> finished;
  pool.post(group, [gate, &finished] {
    gate.wait_for(std::chrono::seconds(30));
    finished.set_value();
  });
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
  auto done = finished.get_future();
  EXPECT_EQ(done.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  release.set_value();
  group.wait();
  EXPECT_EQ(done.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
}

TEST(BuildExecutorTest, InlineExecutorRefusesPost) {
  BuildExecutor exec(1);
  TaskGroup group;
  bool ran = false;
  EXPECT_FALSE(exec.post(group, [&ran] { ran = true; }));
  EXPECT_FALSE(ran);
  group.wait();  // a refused task is not counted
}

TEST(BuildExecutorTest, PostFromInsideAChunkIsRefused) {
  // A task posted from a chunk could wait behind the chunks that wait on
  // it; the caller must run the work itself instead.
  BuildExecutor exec(2);
  TaskGroup group;
  std::atomic<int> refused{0};
  exec.parallel_for(4, [&](std::size_t, std::size_t) {
    if (!exec.post(group, [] {})) refused.fetch_add(1);
  });
  EXPECT_GT(refused.load(), 0);
  std::atomic<bool> ran{false};
  EXPECT_TRUE(exec.post(group, [&ran] { ran.store(true); }));
  group.wait();
  EXPECT_TRUE(ran.load());
}

TEST(BuildExecutorTest, SerialExecutorRunsInline) {
  BuildExecutor exec(1);
  EXPECT_EQ(exec.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  exec.parallel_for(10, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(BuildExecutorTest, ParallelExecutorCoversRange) {
  BuildExecutor exec(4);
  EXPECT_EQ(exec.threads(), 4u);
  std::vector<std::atomic<int>> hits(777);
  exec.parallel_for(777, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BuildExecutorTest, ZeroResolvesFromEnvironment) {
  ::setenv("ALGAS_BUILD_THREADS", "3", 1);
  BuildExecutor exec(0);
  EXPECT_EQ(exec.threads(), 3u);
  ::unsetenv("ALGAS_BUILD_THREADS");
  BuildExecutor hw(0);
  EXPECT_GE(hw.threads(), 1u);
}

// ---------------- binary_io.hpp ----------------

TEST(BinaryWriter, AbandonedWriterLeavesDestinationByteIdentical) {
  const auto dir =
      std::filesystem::temp_directory_path() / "algas_binary_writer_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string dest = (dir / "graph.agr").string();
  const auto contents = [&] {
    std::ifstream in(dest, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto entries = [&] {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  };
  const std::vector<std::string> only_dest{"graph.agr"};
  std::ofstream(dest, std::ios::binary) << "old bytes";
  {
    BinaryWriter w("graph", dest);
    w.bytes("new", 3);
    EXPECT_EQ(contents(), "old bytes");  // nothing published yet
  }  // destroyed before finish(), as by an exception mid-save
  EXPECT_EQ(contents(), "old bytes");
  EXPECT_EQ(entries(), only_dest);

  BinaryWriter w("graph", dest);
  w.bytes("new", 3);
  w.finish();
  EXPECT_EQ(contents(), "new");
  EXPECT_EQ(entries(), only_dest);
  std::filesystem::remove_all(dir);
}

// ---------------- env.hpp ----------------

TEST(Env, Fallbacks) {
  ::unsetenv("ALGAS_TEST_VAR");
  EXPECT_DOUBLE_EQ(env_double("ALGAS_TEST_VAR", 2.5), 2.5);
  EXPECT_EQ(env_size("ALGAS_TEST_VAR", 7), 7u);
  EXPECT_EQ(env_string("ALGAS_TEST_VAR", "x"), "x");
}

TEST(Env, ParsesValues) {
  ::setenv("ALGAS_TEST_VAR", "3.25", 1);
  EXPECT_DOUBLE_EQ(env_double("ALGAS_TEST_VAR", 0.0), 3.25);
  ::setenv("ALGAS_TEST_VAR", "123", 1);
  EXPECT_EQ(env_size("ALGAS_TEST_VAR", 0), 123u);
  ::setenv("ALGAS_TEST_VAR", "junk", 1);
  EXPECT_DOUBLE_EQ(env_double("ALGAS_TEST_VAR", 9.0), 9.0);
  ::unsetenv("ALGAS_TEST_VAR");
}

TEST(Env, ScaleClamped) {
  ::setenv("ALGAS_SCALE", "10000", 1);
  EXPECT_DOUBLE_EQ(dataset_scale(), 100.0);
  ::setenv("ALGAS_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(dataset_scale(), 0.01);
  ::unsetenv("ALGAS_SCALE");
}

TEST(RuntimeOptionsTest, DefaultsWhenUnset) {
  for (const char* var :
       {"ALGAS_SCALE", "ALGAS_QUERIES", "ALGAS_DATASETS", "ALGAS_CACHE_DIR",
        "ALGAS_STORAGE", "ALGAS_TRACE", "ALGAS_SIMCHECK",
        "ALGAS_BUILD_THREADS", "ALGAS_BENCH_OUT", "ALGAS_BENCH_HOSTS"}) {
    ::unsetenv(var);
  }
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_DOUBLE_EQ(opts.scale, 1.0);
  EXPECT_EQ(opts.queries, 0u);
  EXPECT_EQ(opts.datasets, "sift,gist,glove,nytimes");
  EXPECT_EQ(opts.cache_dir, "./algas_cache");
  EXPECT_EQ(opts.storage, "f32");
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_EQ(opts.simcheck, -1);
  EXPECT_EQ(opts.build_threads, 0u);
  EXPECT_TRUE(opts.bench_out.empty());
  EXPECT_EQ(opts.bench_hosts, 1u);
}

TEST(RuntimeOptionsTest, ReadsEveryKnob) {
  ::setenv("ALGAS_SCALE", "0.5", 1);
  ::setenv("ALGAS_QUERIES", "40", 1);
  ::setenv("ALGAS_DATASETS", "sift", 1);
  ::setenv("ALGAS_CACHE_DIR", "/tmp/algas_test_cache", 1);
  ::setenv("ALGAS_STORAGE", "f16", 1);
  ::setenv("ALGAS_TRACE", "out.json", 1);
  ::setenv("ALGAS_SIMCHECK", "on", 1);
  ::setenv("ALGAS_BUILD_THREADS", "2", 1);
  ::setenv("ALGAS_BENCH_OUT", "gate.json", 1);
  ::setenv("ALGAS_BENCH_HOSTS", "4", 1);
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_DOUBLE_EQ(opts.scale, 0.5);
  EXPECT_EQ(opts.queries, 40u);
  EXPECT_EQ(opts.datasets, "sift");
  EXPECT_EQ(opts.cache_dir, "/tmp/algas_test_cache");
  EXPECT_EQ(opts.storage, "f16");
  EXPECT_EQ(opts.trace_path, "out.json");
  EXPECT_EQ(opts.simcheck, 1);
  EXPECT_EQ(opts.build_threads, 2u);
  EXPECT_EQ(opts.bench_out, "gate.json");
  EXPECT_EQ(opts.bench_hosts, 4u);
  // A host count below one reads as one.
  ::setenv("ALGAS_BENCH_HOSTS", "0", 1);
  EXPECT_EQ(RuntimeOptions::from_env().bench_hosts, 1u);
  for (const char* var :
       {"ALGAS_SCALE", "ALGAS_QUERIES", "ALGAS_DATASETS", "ALGAS_CACHE_DIR",
        "ALGAS_STORAGE", "ALGAS_TRACE", "ALGAS_SIMCHECK",
        "ALGAS_BUILD_THREADS", "ALGAS_BENCH_OUT", "ALGAS_BENCH_HOSTS"}) {
    ::unsetenv(var);
  }
}

TEST(RuntimeOptionsTest, SimcheckParsesOnOffAndGarbage) {
  ::setenv("ALGAS_SIMCHECK", "1", 1);
  EXPECT_EQ(RuntimeOptions::from_env().simcheck, 1);
  ::setenv("ALGAS_SIMCHECK", "off", 1);
  EXPECT_EQ(RuntimeOptions::from_env().simcheck, 0);
  ::setenv("ALGAS_SIMCHECK", "maybe", 1);
  EXPECT_EQ(RuntimeOptions::from_env().simcheck, -1);
  ::unsetenv("ALGAS_SIMCHECK");
}

}  // namespace
}  // namespace algas
