// Golden-trace regression tests.
//
// Each (workload, mode) cell runs a small job with a Tracer recording
// the kTraceGolden categories and compares the canonical text against
// a checked-in file under tests/golden/. The files pin down the whole
// observable structure of a run — scheduling order, container churn,
// task phase boundaries, HDFS traffic — so any behavioural drift in
// the scheduler, the AMs, the pool, or the estimator-driven mode
// choice shows up as a readable diff instead of a silently shifted
// benchmark number.
//
// Updating the goldens after an *intentional* behaviour change:
//
//   GOLDEN_UPDATE=1 ctest -R Golden        # or run the test binary
//   git diff tests/golden/                 # review what moved, then commit
//
// The update mode rewrites the files in the source tree (the path is
// baked in via the MRAPID_GOLDEN_DIR compile definition) and fails the
// run so a forgotten GOLDEN_UPDATE in CI can't quietly bless a drift.
// Invariants are checked in both modes: a golden file is never allowed
// to contain a structurally invalid trace.

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "check/textio.h"
#include "harness/world.h"
#include "sim/trace.h"
#include "sim/trace_check.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

#ifndef MRAPID_GOLDEN_DIR
#error "MRAPID_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace mrapid {
namespace {

using harness::RunMode;

bool update_mode() {
  const char* value = std::getenv("GOLDEN_UPDATE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

std::string golden_path(const std::string& name) {
  return std::string(MRAPID_GOLDEN_DIR) + "/" + name + ".trace";
}

std::unique_ptr<wl::Workload> make_workload(const std::string& workload) {
  if (workload == "wordcount") {
    wl::WordCountParams params;
    params.num_files = 2;
    params.bytes_per_file = 256_KB;
    return std::make_unique<wl::WordCount>(params);
  }
  if (workload == "terasort") {
    wl::TeraSortParams params;
    params.rows = 5000;
    return std::make_unique<wl::TeraSort>(params);
  }
  wl::PiParams params;
  params.total_samples = 200000;
  return std::make_unique<wl::Pi>(params);
}

// Shared tail of every golden test, delegating to the same
// compare-or-update helper the fuzz reproducers use (check/textio.h):
// rewrite the file in update mode (failing so CI can't bless a
// drift), byte-compare otherwise.
void compare_or_update(const std::string& text, const std::string& path) {
  const check::CompareStatus status = check::compare_or_update(text, path, update_mode());
  if (!status.ok()) FAIL() << status.message << " (the update flag here is GOLDEN_UPDATE=1)";
}

struct GoldenCase {
  const char* workload;
  RunMode mode;
  const char* mode_tag;
};

// gtest would otherwise print the raw bytes of the struct — string
// pointers and padding — into the listed test name, so every build
// (and every ASLR draw at discovery time) would give the cells new
// ctest names.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.workload << "/" << c.mode_tag; }

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, MatchesCheckedInTrace) {
  const GoldenCase& c = GetParam();
  auto workload = make_workload(c.workload);

  harness::WorldConfig config;
  harness::World world(config, c.mode);
  sim::Tracer tracer(sim::kTraceGolden);
  world.attach_tracer(tracer);
  auto result = world.run(*workload);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);
  ASSERT_FALSE(tracer.empty());

  // A golden file must always be structurally valid, whichever mode
  // we're in.
  const auto violations = sim::check_trace(tracer.events());
  ASSERT_TRUE(violations.empty()) << sim::violations_to_string(violations);

  const std::string text = sim::canonical_text(tracer.events());
  compare_or_update(text, golden_path(std::string(c.workload) + "_" + c.mode_tag));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenTrace,
    ::testing::Values(GoldenCase{"wordcount", RunMode::kHadoop, "hadoop"},
                      GoldenCase{"wordcount", RunMode::kDPlus, "dplus"},
                      GoldenCase{"wordcount", RunMode::kUPlus, "uplus"},
                      GoldenCase{"terasort", RunMode::kHadoop, "hadoop"},
                      GoldenCase{"terasort", RunMode::kDPlus, "dplus"},
                      GoldenCase{"terasort", RunMode::kUPlus, "uplus"},
                      GoldenCase{"pi", RunMode::kHadoop, "hadoop"},
                      GoldenCase{"pi", RunMode::kDPlus, "dplus"},
                      GoldenCase{"pi", RunMode::kUPlus, "uplus"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.workload) + "_" + info.param.mode_tag;
    });

// Fault-recovery golden: the node running both maps crashes mid-map
// (see wordcount_hadoop.trace for where and when the maps run), and
// the checked-in trace pins the whole recovery arc byte for byte —
// crash, liveness expiry, container write-off, map requeue,
// re-execution on surviving nodes, correct completion.
TEST(GoldenTrace, WordCountNodeCrashRecovery) {
  auto workload = make_workload("wordcount");
  harness::WorldConfig config;
  config.yarn.nm_expiry = sim::SimDuration::seconds(3.0);
  harness::FaultSpec crash;
  crash.kind = harness::FaultKind::kNodeCrash;
  crash.node = 3;
  crash.at = sim::SimDuration::micros(5'800'000);  // both maps are running
  config.faults.events.push_back(crash);

  harness::World world(config, RunMode::kHadoop);
  sim::Tracer tracer(sim::kTraceGolden);
  world.attach_tracer(tracer);
  auto result = world.run(*workload);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);

  const auto violations = sim::check_trace(tracer.events());
  ASSERT_TRUE(violations.empty()) << sim::violations_to_string(violations);

  // The scenario must actually exercise the arc before pinning it.
  bool crashed = false, expired = false, container_lost = false, map_lost = false;
  for (const auto& event : tracer.events()) {
    crashed |= event.name == "fault.node_crash";
    expired |= event.name == "node.expired";
    container_lost |= event.name == "container.lost";
    map_lost |= event.name == "map.lost";
  }
  ASSERT_TRUE(crashed && expired && container_lost && map_lost)
      << "crash scenario lost its teeth: crash=" << crashed << " expired=" << expired
      << " container_lost=" << container_lost << " map_lost=" << map_lost;

  compare_or_update(sim::canonical_text(tracer.events()),
                    golden_path("wordcount_crash_hadoop"));
}

// Backfilling golden: the same wordcount under the EASY backfilling
// policy from the scheduler zoo (docs/SCHEDULERS.md). Pins the shadow
// schedule's allocation order byte for byte, so a drift in the
// reservation or backfill logic — or in the runtime estimates feeding
// it — shows up as a trace diff, not a quietly shifted latency.
TEST(GoldenTrace, WordCountEasyBackfillPolicy) {
  auto workload = make_workload("wordcount");
  harness::WorldConfig config;
  config.scheduler = "easy-backfill";

  harness::World world(config, RunMode::kHadoop);
  sim::Tracer tracer(sim::kTraceGolden);
  world.attach_tracer(tracer);
  auto result = world.run(*workload);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);

  const auto violations = sim::check_trace(tracer.events());
  ASSERT_TRUE(violations.empty()) << sim::violations_to_string(violations);

  compare_or_update(sim::canonical_text(tracer.events()),
                    golden_path("wordcount_easybackfill"));
}

// Same seed, two fresh worlds: the recorded traces must be
// byte-identical — the foundation the golden files stand on.
TEST(GoldenTrace, SameSeedGivesByteIdenticalTrace) {
  auto workload = make_workload("wordcount");
  harness::WorldConfig config;
  config.seed = 0xC0FFEE;

  std::string first;
  for (int run = 0; run < 2; ++run) {
    harness::World world(config, RunMode::kDPlus);
    sim::Tracer tracer;  // full mask: heartbeats and flows included
    world.attach_tracer(tracer);
    ASSERT_TRUE(world.run(*workload).has_value());
    const std::string text = sim::canonical_text(tracer.events());
    if (run == 0) {
      first = text;
    } else {
      ASSERT_EQ(first, text);
    }
  }
}

// The byte-determinism gate extended to a reservation-holding policy:
// the backfillers' shadow schedules are pure functions of the
// deterministic snapshot, so the same seed must replay bit for bit
// under them too.
TEST(GoldenTrace, SameSeedByteIdenticalUnderBackfillPolicy) {
  auto workload = make_workload("wordcount");
  harness::WorldConfig config;
  config.seed = 0xC0FFEE;
  config.scheduler = "easy-backfill";

  std::string first;
  for (int run = 0; run < 2; ++run) {
    harness::World world(config, RunMode::kDPlus);
    sim::Tracer tracer;  // full mask: heartbeats and flows included
    world.attach_tracer(tracer);
    ASSERT_TRUE(world.run(*workload).has_value());
    const std::string text = sim::canonical_text(tracer.events());
    if (run == 0) {
      first = text;
    } else {
      ASSERT_EQ(first, text);
    }
  }
}

}  // namespace
}  // namespace mrapid
