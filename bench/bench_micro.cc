// Micro-benchmarks (google-benchmark) for the simulator's hot paths:
// event queue throughput, fluid bandwidth re-planning, the network
// waterfill, Zipf text generation, the WordCount tokenizer and its
// token-id map, and the Halton kernel. These guard the *wall-clock*
// cost of running the figure benches.
//
// Registered as an on-request experiment ("micro"): wall-clock output
// cannot be byte-identical across runs, so it only executes when
// --filter names it explicitly.

#include <benchmark/benchmark.h>

#include "bench/figures.h"
#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "sim/bandwidth.h"
#include "sim/simulation.h"
#include "workloads/pi.h"
#include "workloads/textgen.h"
#include "workloads/wordcount.h"

namespace {

using namespace mrapid;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < n; ++i) {
      queue.push(sim::SimTime::from_micros((i * 7919) % 100000), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulationEventChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = n;
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.schedule_after(sim::SimDuration::micros(1), chain);
    };
    sim.schedule_now(chain);
    sim.run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulationEventChain)->Arg(10000);

void BM_BandwidthConcurrentTransfers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::BandwidthResource disk(sim, "disk", Rate::mb_per_sec(100));
    for (int i = 0; i < n; ++i) disk.start((i + 1) * 1_MB, [](sim::SimDuration) {});
    sim.run();
    benchmark::DoNotOptimize(disk.bytes_served());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BandwidthConcurrentTransfers)->Arg(16)->Arg(128);

void BM_NetworkWaterfill(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    cluster::Cluster cluster(sim, cluster::a2_paper_cluster());
    auto& network = cluster.network();
    RngStream rng(7);
    for (int i = 0; i < flows; ++i) {
      const auto src = static_cast<cluster::NodeId>(rng.next_int(1, 9));
      auto dst = static_cast<cluster::NodeId>(rng.next_int(1, 9));
      if (dst == src) dst = (dst % 9) + 1;
      network.start_flow(src, dst, 10_MB, [](sim::SimDuration) {});
    }
    sim.run();
    benchmark::DoNotOptimize(network.bytes_delivered());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_NetworkWaterfill)->Arg(8)->Arg(64);

void BM_ZipfTextGeneration(benchmark::State& state) {
  // Word ranks drawn through the vocabulary's ZipfSampler, spelled out.
  const Bytes bytes = state.range(0) * 1_KB;
  wl::TextGenerator gen(42);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(bytes, tag++));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ZipfTextGeneration)->Arg(64)->Arg(1024);

void BM_Tokenizer(benchmark::State& state) {
  wl::TextGenerator gen(42);
  const std::string text = gen.generate(state.range(0) * 1_KB, 0);
  for (auto _ : state) {
    wl::WordTally counts;
    wl::tokenize_into(text, counts);
    benchmark::DoNotOptimize(counts.size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Tokenizer)->Arg(64)->Arg(1024);

void BM_TokenIdMap(benchmark::State& state) {
  // The WordCount map over one split, corpus file already cached: what
  // BM_Tokenizer computes, counted by vocabulary id.
  wl::WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = state.range(0) * 1_KB;
  mr::InputSplit split;
  split.path = "/input/micro/part-00000";
  split.length = params.bytes_per_file;
  wl::WordCount(params).execute_map(split);  // builds the cached file
  for (auto _ : state) {
    const wl::WordCount wc(params);  // fresh: maps are memoised per instance
    benchmark::DoNotOptimize(wc.execute_map(split).output_bytes);
  }
  state.SetBytesProcessed(state.iterations() * params.bytes_per_file);
}
BENCHMARK(BM_TokenIdMap)->Arg(64)->Arg(1024);

void BM_HaltonPoints(benchmark::State& state) {
  // Consecutive points from a paper map start (the 400m sweep's map 1),
  // in the Pi map's batches.
  const std::int64_t points = state.range(0);
  std::vector<double> xs(4096), ys(4096);
  std::int64_t begin = 100'000'000;
  for (auto _ : state) {
    std::int64_t inside = 0;
    for (std::int64_t done = 0; done < points; done += 4096) {
      wl::Pi::halton_points(begin + done, xs, ys);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if ((xs[i] - 0.5) * (xs[i] - 0.5) + (ys[i] - 0.5) * (ys[i] - 0.5) <= 0.25) ++inside;
      }
    }
    benchmark::DoNotOptimize(inside);
    begin += points;
  }
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_HaltonPoints)->Arg(4096 * 25);

void BM_FullShortJobSimulation(benchmark::State& state) {
  // Wall-clock cost of one complete simulated short job (the unit of
  // work every figure bench repeats).
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  for (auto _ : state) {
    harness::WorldConfig config;
    auto result = harness::run_workload(config, harness::RunMode::kDPlus, wc);
    if (!result) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(result->profile.elapsed_seconds());
  }
}
BENCHMARK(BM_FullShortJobSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

namespace mrapid::bench {
namespace {

exp::ScenarioSpec make(const exp::SweepOptions& opt) {
  exp::ScenarioSpec spec;
  spec.title = "Micro-benchmarks — simulator hot paths (wall clock)";
  const bool smoke = opt.smoke;
  spec.render = [smoke](const std::vector<exp::TrialResult>&, std::ostream& os) {
    if (smoke) {
      os << "(micro-benchmarks skipped under --smoke: wall-clock timings)\n";
      return;
    }
    // google-benchmark writes to stdout itself; its timings are
    // inherently non-deterministic, which is why this experiment only
    // runs when named explicitly.
    int argc = 1;
    char arg0[] = "mrapid_bench";
    char* argv[] = {arg0, nullptr};
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  };
  return spec;
}

const exp::Registrar reg("micro", "google-benchmark micro-benchmarks (wall clock)", make,
                         /*only_on_request=*/true);

}  // namespace
}  // namespace mrapid::bench
