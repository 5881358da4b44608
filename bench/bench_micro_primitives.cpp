// Microbenchmarks (google-benchmark) for the hot primitives: distance
// kernels across the Table III dimensions, candidate-list maintenance, host
// TopK merge, and the DES core's event throughput. These are *wall-clock*
// numbers for the functional implementations (not virtual time) — they
// bound how fast the simulator itself runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "distance/distance.hpp"
#include "search/candidate_list.hpp"
#include "search/topk_merge.hpp"
#include "simgpu/simulation.hpp"

namespace {

using namespace algas;

std::vector<float> random_vec(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.next_gaussian();
  return v;
}

void BM_DistanceL2(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(dim, 1);
  const auto b = random_vec(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2_sq(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * dim);
}
BENCHMARK(BM_DistanceL2)->Arg(128)->Arg(200)->Arg(256)->Arg(960);

void BM_DistanceCosine(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(dim, 3);
  const auto b = random_vec(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        distance(Metric::kCosine, a, b));
  }
}
BENCHMARK(BM_DistanceCosine)->Arg(200)->Arg(256);

std::vector<KV> random_kvs(std::size_t n) {
  Rng rng(n * 977);
  std::vector<KV> v(n);
  for (auto& kv : v) {
    kv = KV::make(rng.next_float(),
                          static_cast<NodeId>(rng.next_below(1 << 20)));
  }
  return v;
}

void BM_CandidateListMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  search::CandidateList list(n);
  auto expand = random_kvs(n / 2);
  std::sort(expand.begin(), expand.end());
  for (auto _ : state) {
    list.reset();
    list.merge_sorted(expand);
    benchmark::DoNotOptimize(list.entries().data());
  }
}
BENCHMARK(BM_CandidateListMerge)->Arg(64)->Arg(128)->Arg(256);

void BM_HostTopkMerge(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  const std::size_t len = 128;
  std::vector<KV> concat;
  for (std::size_t r = 0; r < runs; ++r) {
    auto run = random_kvs(len);
    std::sort(run.begin(), run.end());
    concat.insert(concat.end(), run.begin(), run.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search::merge_sorted_runs(concat, runs, len, 16,
                                  search::AcceptPredicate{}));
  }
}
BENCHMARK(BM_HostTopkMerge)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

class PingActor : public sim::Actor {
 public:
  void step(sim::Simulation& sim) override {
    if (remaining-- > 0) sim.schedule(this, sim.now() + 10.0);
  }
  int remaining = 0;
};

void BM_SimulationEvents(benchmark::State& state) {
  const auto actors = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<PingActor> pool(actors);
    for (auto& a : pool) {
      a.remaining = 100;
      sim.schedule(&a, 0.0);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(actors) * 101);
}
BENCHMARK(BM_SimulationEvents)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
