// The scenario fuzzer's own test suite: generator determinism and
// feasibility, reproducer round-trips, the differential oracle's
// clean-pass and bug-catching behaviour, and the shrinker self-test
// the acceptance bar asks for — an intentionally injected reduce bug
// must be caught and minimized to a reproducer with at most 2 fault
// events and at most 4 total nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "check/fuzzer.h"
#include "check/oracle.h"
#include "check/reference.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness/fault.h"
#include "mrapid/scheduler_registry.h"
#include "workloads/dataset_cache.h"
#include "workloads/textgen.h"
#include "workloads/wordcount.h"

namespace mrapid {
namespace {

TEST(ScenarioGenerator, SameSeedSameScenario) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 31337ull}) {
    const check::FuzzScenario a = check::generate_scenario(seed);
    const check::FuzzScenario b = check::generate_scenario(seed);
    EXPECT_EQ(check::serialize_scenario(a), check::serialize_scenario(b)) << "seed " << seed;
  }
}

TEST(ScenarioGenerator, EverySeedIsFeasible) {
  // The generator must only produce scenarios every mode can boot and
  // finish: workers at or above the pool floor, fault counts within
  // the documented caps, crashes only with a spare worker in hand.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    EXPECT_GE(s.workers, check::min_workers(s)) << "seed " << seed;
    EXPECT_LE(static_cast<int>(s.faults.size()), 6) << "seed " << seed;
    int crashes = 0;
    for (const harness::FaultSpec& fault : s.faults) {
      if (fault.kind == harness::FaultKind::kNodeCrash) ++crashes;
    }
    EXPECT_LE(crashes, 1) << "seed " << seed;
    if (crashes > 0) {
      EXPECT_GE(s.workers, check::min_workers(s) + 1)
          << "seed " << seed << ": a crash needs a spare worker";
    }
  }
}

TEST(ScenarioGenerator, SerializeParseRoundTrips) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    const std::string text = check::serialize_scenario(s);
    const check::FuzzScenario parsed = check::parse_scenario(text);
    EXPECT_EQ(text, check::serialize_scenario(parsed)) << "seed " << seed;
    // Stream keys only appear for stream scenarios, so pre-stream
    // reproducer files keep round-tripping byte-identically.
    if (!check::is_stream(s)) {
      EXPECT_EQ(text.find("tenant "), std::string::npos) << "seed " << seed;
      EXPECT_EQ(text.find("stream_horizon_ms"), std::string::npos) << "seed " << seed;
    }
  }
}

TEST(ScenarioGenerator, StreamSeedsAreWellFormed) {
  int streams = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    if (!check::is_stream(s)) continue;
    ++streams;
    EXPECT_GE(s.tenants.size(), 2u) << "seed " << seed;
    EXPECT_LE(s.tenants.size(), 4u) << "seed " << seed;
    EXPECT_EQ(s.node_type, "a3") << "seed " << seed;
    EXPECT_GE(s.workers, 3) << "seed " << seed;
    EXPECT_TRUE(s.faults.empty()) << "seed " << seed << ": streams are fault-free";
    EXPECT_GE(s.stream_horizon_ms, 30000) << "seed " << seed;
    EXPECT_LE(s.stream_horizon_ms, 60000) << "seed " << seed;
    for (const check::FuzzTenant& tenant : s.tenants) {
      EXPECT_NO_THROW(wl::arrival_process_from_name(tenant.arrival)) << "seed " << seed;
      EXPECT_GE(tenant.mean_interarrival_ms, 8000) << "seed " << seed;
      EXPECT_LE(tenant.mean_interarrival_ms, 20000) << "seed " << seed;
      EXPECT_GT(tenant.weight_pct, 0) << "seed " << seed;
      EXPECT_GE(tenant.floor_pct, 0) << "seed " << seed;
      EXPECT_LE(tenant.floor_pct, 100) << "seed " << seed;
    }
    // The materialized specs must construct (i.e. validate) cleanly.
    EXPECT_EQ(check::make_tenant_specs(s).size(), s.tenants.size()) << "seed " << seed;
  }
  // A quarter of seeds become streams; 64 seeds should yield a healthy
  // handful (observed: ~18).
  EXPECT_GE(streams, 8);
  EXPECT_LE(streams, 32);
}

TEST(ScenarioGenerator, StreamDrawsDoNotDisturbLegacyFields) {
  // Non-stream seeds must generate byte-identically to the pre-stream
  // generator: the tenant coin and all tenant draws come from their own
  // named RngStream. Spot-check a known pre-stream serialization shape:
  // every non-stream seed's text has no stream keys and still parses.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    if (check::is_stream(s)) continue;
    const check::FuzzScenario again = check::generate_scenario(seed);
    EXPECT_EQ(check::serialize_scenario(s), check::serialize_scenario(again));
  }
}

TEST(ScenarioGenerator, PolicyAxisDrawsRegisteredPoliciesFromItsOwnStream) {
  // ~30% of seeds swap in a zoo policy; the draw must come from its own
  // named stream (legacy fields untouched — covered by the goldens and
  // the round-trip test above) and only ever name registered policies.
  int with_policy = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    if (s.policy.empty()) continue;
    ++with_policy;
    EXPECT_TRUE(core::SchedulerRegistry::instance().contains(s.policy))
        << "seed " << seed << " drew unknown policy '" << s.policy << "'";
    // The default schedulers are reachable by leaving the field empty;
    // the axis only ever draws the three new policies.
    EXPECT_TRUE(s.policy == "fcfs" || s.policy == "easy-backfill" ||
                s.policy == "conservative-backfill")
        << "seed " << seed;
  }
  EXPECT_GE(with_policy, 10);
  EXPECT_LE(with_policy, 32);
}

TEST(Oracle, CleanBuildPassesOnPolicySeeds) {
  // One seed per zoo policy: the full differential oracle (4 modes,
  // reference digest, trace invariants, determinism re-run) must stay
  // green when a backfilling or FIFO policy replaces the default
  // scheduler.
  std::map<std::string, std::uint64_t> picks;
  for (std::uint64_t seed = 0; seed < 64 && picks.size() < 3; ++seed) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    if (!s.policy.empty()) picks.emplace(s.policy, seed);
  }
  ASSERT_EQ(picks.size(), 3u) << "first 64 seeds never drew all three policies";
  for (const auto& [policy, seed] : picks) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    const check::OracleReport report = check::run_oracle(s, {});
    EXPECT_TRUE(report.ok()) << "seed " << seed << " policy " << policy << ":\n"
                             << report.violations_text();
  }
}

TEST(ScenarioGenerator, MakeTenantSpecsRequiresStream) {
  const check::FuzzScenario s = check::generate_scenario(0);  // seed 0 is single-job
  ASSERT_FALSE(check::is_stream(s));
  EXPECT_THROW(check::make_tenant_specs(s), std::invalid_argument);
}

TEST(ScenarioGenerator, ParseRejectsGarbage) {
  EXPECT_THROW(check::parse_scenario("no terminator"), std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("bogus_key 7\nend\n"), std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("workers not_a_number\nend\n"), std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("fault warp 1 2 3 4\nend\n"), std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("tenant fractal 1000 100 0\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("tenant poisson nope 100 0\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(check::parse_scenario("policy warp-speed\nend\n"), std::invalid_argument);
}

// A valid single-job reproducer with one `key value` line replaced (or,
// for a key it does not carry, inserted before `end`).
std::string with_line(const std::string& key, const std::string& value) {
  const std::string base = check::serialize_scenario(check::generate_scenario(1));
  const std::string line = key + " " + value + "\n";
  const std::size_t at = base.find("\n" + key + " ");
  if (at == std::string::npos) return base.substr(0, base.rfind("end\n")) + line + "end\n";
  const std::size_t start = at + 1;
  return base.substr(0, start) + line + base.substr(base.find('\n', start) + 1);
}

// The parse error message for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    check::parse_scenario(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ScenarioGenerator, ParseRejectsBadGeometryNamingTheKey) {
  ASSERT_EQ(parse_error(with_line("racks", "1")), "");
  // Each of these used to abort on an assertion, run a different
  // cluster than the file names, or make every mode disagree with the
  // reference executor.
  EXPECT_NE(parse_error(with_line("racks", "0")).find("'racks'"), std::string::npos);
  EXPECT_NE(parse_error(with_line("workers", "0")).find("'workers'"), std::string::npos);
  EXPECT_NE(parse_error(with_line("node_type", "a9")).find("'node_type'"), std::string::npos);
  EXPECT_NE(parse_error(with_line("reducers", "0")).find("'reducers'"), std::string::npos);
  // Empty payloads used to abort in the TeraSort and Pi constructors.
  for (const char* key : {"rows", "blocks", "samples", "pi_maps"}) {
    EXPECT_NE(parse_error(with_line(key, "0")).find(std::string("'") + key + "'"),
              std::string::npos)
        << key;
  }
}

TEST(ScenarioGenerator, ParseRejectsRetiredHotPathKeys) {
  // Reproducers written while the hot paths had alternative engines
  // may carry their selector keys; those engines are gone, so the file
  // fails loudly instead of replaying something else.
  for (const char* key : {"indexed_placement", "incremental_rates", "fast_shuffle"}) {
    EXPECT_EQ(parse_error(with_line(key, "0")),
              std::string("unknown scenario key '") + key + "'");
  }
}

TEST(FaultPlanExpansion, IsDeterministic) {
  harness::FaultPlan plan;
  plan.heartbeat_loss_prob = 0.5;
  plan.straggler_prob = 0.5;
  plan.node_crash_prob = 0.25;
  const std::vector<cluster::NodeId> workers = {1, 2, 3, 4};
  RngStream rng_a(7, "expand");
  RngStream rng_b(7, "expand");
  const auto a = harness::expand_fault_plan(plan, rng_a, workers);
  const auto b = harness::expand_fault_plan(plan, rng_b, workers);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].at.as_micros(), b[i].at.as_micros());
  }
}

TEST(Oracle, CleanBuildPassesOnSampledSeeds) {
  // Seed 6 generates a stream scenario, the others single-job ones, so
  // both oracle paths get exercised.
  for (std::uint64_t seed : {0ull, 6ull, 14ull}) {
    const check::FuzzScenario s = check::generate_scenario(seed);
    const check::OracleReport report = check::run_oracle(s, {});
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.violations_text();
    EXPECT_EQ(report.mode_digests.size(), 4u) << "seed " << seed;
    for (const auto& [mode, digest] : report.mode_digests) {
      // Single-job scenarios compare against the reference executor;
      // stream scenarios have no single reference — their property is
      // cross-mode agreement of the per-job digest maps.
      const std::uint64_t expected =
          check::is_stream(s) ? report.mode_digests.front().second : report.reference;
      EXPECT_EQ(digest, expected) << "seed " << seed << " mode " << mode;
    }
  }
}

// A handcrafted scenario with >= 2 maps, so both injected bugs bite.
check::FuzzScenario two_map_scenario() {
  check::FuzzScenario s;
  s.seed = 99;
  s.workload = "wordcount";
  s.files = 2;
  s.file_kb = 128;
  s.workers = 2;
  s.racks = 1;
  s.node_type = "a3";
  s.reducers = 1;
  return s;
}

TEST(Oracle, CatchesDroppedShard) {
  check::OracleOptions options;
  options.injected_bug = mr::InjectedBug::kDropShard;
  const check::OracleReport report = check::run_oracle(two_map_scenario(), options);
  ASSERT_FALSE(report.ok());
  // Every mode funnels reduces through the same runner, so every mode
  // must disagree with the (uncorrupted) reference.
  int mismatches = 0;
  for (const std::string& violation : report.violations) {
    mismatches += violation.find("digest mismatch") != std::string::npos;
  }
  EXPECT_EQ(mismatches, 4) << report.violations_text();
}

// Every mode reads `s`'s memo (already poisoned) and must disagree
// with the reference, which must still give `clean`.
void expect_only_modes_read_the_poison(const check::FuzzScenario& s, std::uint64_t clean) {
  const check::OracleReport report = check::run_oracle(s, {});
  EXPECT_EQ(report.reference, clean);
  int mismatches = 0;
  for (const std::string& violation : report.violations) {
    mismatches += violation.find("digest mismatch") != std::string::npos;
  }
  EXPECT_EQ(mismatches, 4) << report.violations_text();
}

TEST(Oracle, ReferenceComputesEveryMapItselfInsteadOfReadingTheMemo) {
  check::FuzzScenario s = two_map_scenario();
  s.data_seed = 0xBAD5EED;  // a corpus no other test memoizes
  const std::uint64_t clean = check::reference_digest(s, *check::make_workload(s));

  // Poison file 0's only split: the memo now holds wrong counts for it.
  const Bytes file_bytes = static_cast<Bytes>(s.file_kb) * 1024;
  const wl::DatasetKey split = wl::DatasetKey::wordcount_map(
      wl::TextGenerator(s.data_seed).file_key(file_bytes, 0), 0, file_bytes);
  wl::DatasetCache::instance().acquire(split, [] {
    auto poison = std::make_shared<const wl::KeyedCounts>(
        wl::KeyedCounts{{wl::word_key("poison"), 1}});
    return wl::DatasetCache::Built{poison, sizeof(wl::KeyedCount)};
  });

  expect_only_modes_read_the_poison(s, clean);
}

// The memoized run of file `file`'s only split, as every mode maps it.
std::shared_ptr<const void> memoized_run(const check::FuzzScenario& s, wl::Workload& workload,
                                         int file) {
  mr::InputSplit split;
  split.path = "/input/poison/part-0000" + std::to_string(file);
  split.length = static_cast<Bytes>(s.file_kb) * 1024;
  return workload.execute_map(split).data;
}

TEST(Oracle, ReferenceComputesEveryReduceAndDigestItself) {
  wl::DatasetCache& cache = wl::DatasetCache::instance();

  // A reduce: poison the merge of the two files' runs.
  check::FuzzScenario two = two_map_scenario();
  two.data_seed = 0xBAD5EED2;  // a corpus no other test memoizes
  const std::unique_ptr<wl::Workload> merging = check::make_workload(two);
  const std::uint64_t merged_clean = check::reference_digest(two, *merging);
  const std::vector<std::uint64_t> runs = {
      cache.serial_of(memoized_run(two, *merging, 0).get()),
      cache.serial_of(memoized_run(two, *merging, 1).get()),
  };
  ASSERT_NE(runs[0], 0u);
  ASSERT_NE(runs[1], 0u);
  cache.acquire(wl::DatasetKey::reduce(wl::DatasetKey::Kind::kWordCountReduce, runs), [] {
    auto poison = std::make_shared<const wl::KeyedCounts>(
        wl::KeyedCounts{{wl::word_key("poison"), 1}});
    return wl::DatasetCache::Built{poison, sizeof(wl::KeyedCount)};
  });
  expect_only_modes_read_the_poison(two, merged_clean);

  // A digest step: one file, so the result is that file's run, folded
  // from the state after the partition count.
  check::FuzzScenario one = two_map_scenario();
  one.files = 1;
  one.data_seed = 0xBAD5EED3;
  const std::unique_ptr<wl::Workload> single = check::make_workload(one);
  const std::uint64_t single_clean = check::reference_digest(one, *single);
  const std::uint64_t run = cache.serial_of(memoized_run(one, *single, 0).get());
  ASSERT_NE(run, 0u);
  Fnv64 counted;
  counted.mix(std::uint64_t{1});
  cache.acquire(
      wl::DatasetKey::digest_step(wl::DatasetKey::Kind::kWordCountDigest, counted.value(), run),
      [] {
        return wl::DatasetCache::Built{std::make_shared<const std::uint64_t>(0xBAD),
                                       sizeof(std::uint64_t)};
      });
  expect_only_modes_read_the_poison(one, single_clean);
}

TEST(Oracle, CatchesDuplicatedShard) {
  check::OracleOptions options;
  options.injected_bug = mr::InjectedBug::kDupShard;
  const check::OracleReport report = check::run_oracle(two_map_scenario(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations_text().find("digest mismatch"), std::string::npos);
}

TEST(Shrinker, MinimizesInjectedBugToSmallReproducer) {
  // The acceptance bar: start from a deliberately busy failing
  // scenario and require the shrinker to land within <= 2 fault events
  // and <= 4 total nodes (3 workers + the master).
  check::FuzzScenario start;
  std::uint64_t seed = 0;
  for (;; ++seed) {
    start = check::generate_scenario(seed);
    if (start.workload != "pi" && start.faults.size() >= 3 && start.workers >= 4) break;
    ASSERT_LT(seed, 64u) << "no busy non-pi scenario in the first 64 seeds";
  }

  check::OracleOptions options;
  options.injected_bug = mr::InjectedBug::kDropShard;
  ASSERT_FALSE(check::run_oracle(start, options).ok())
      << "seed " << seed << " does not trigger the injected bug";

  const check::ShrinkResult result = check::shrink_scenario(start, options);
  EXPECT_FALSE(result.report.ok()) << "shrinking lost the failure";
  EXPECT_LE(result.scenario.faults.size(), 2u);
  EXPECT_LE(result.scenario.workers + 1, 4);  // workers + master
  EXPECT_GT(result.accepted_steps, 0);
  EXPECT_LE(result.oracle_runs, 200);
  // Shrinking must preserve what makes the bug reachable: dropping a
  // map shard needs at least two maps, i.e. two files here.
  EXPECT_GE(result.scenario.files, 2);
}

TEST(Fuzzer, ReportIsIdenticalAcrossJobCounts) {
  check::FuzzOptions serial;
  serial.seed_lo = 0;
  serial.seed_hi = 7;
  serial.jobs = 1;
  check::FuzzOptions parallel = serial;
  parallel.jobs = 4;

  const check::FuzzSummary a = check::run_fuzz(serial);
  const check::FuzzSummary b = check::run_fuzz(parallel);
  EXPECT_TRUE(a.ok()) << a.report;
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.scenarios, 8u);
}

TEST(Fuzzer, InjectedBugProducesFailuresAndMinimizedRepro) {
  check::FuzzOptions options;
  options.seed_lo = 2;
  options.seed_hi = 2;
  options.jobs = 1;
  options.shrink = true;
  options.injected_bug = mr::InjectedBug::kDropShard;

  const check::FuzzSummary summary = check::run_fuzz(options);
  ASSERT_EQ(summary.failures.size(), 1u) << summary.report;
  const check::FuzzFailure& failure = summary.failures[0];
  EXPECT_FALSE(failure.violations.empty());
  EXPECT_LE(failure.minimized.faults.size(), 2u);
  EXPECT_NE(summary.report.find("shrunk"), std::string::npos);
}

}  // namespace
}  // namespace mrapid
