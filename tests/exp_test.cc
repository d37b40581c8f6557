// Tests for the experiment layer (src/exp): cartesian sweep expansion,
// registry lookup and duplicate rejection, the JSON result schema, the
// flag parser, failure capture, and the determinism guarantee that
// --jobs N output is byte-identical to --jobs 1.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/json.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/sink.h"
#include "exp/workload_factory.h"
#include "mapreduce/job.h"
#include "workloads/wordcount.h"

namespace mrapid::exp {
namespace {

// ---- sweep expansion -------------------------------------------------

TEST(ExpandTrials, CartesianOrderAxesThenModeThenSeed) {
  ScenarioSpec spec;
  spec.axes = {int_axis("a", {1, 2}), label_axis("b", {"x", "y"})};
  spec.modes = {harness::RunMode::kHadoop, harness::RunMode::kUPlus};
  spec.seeds = {7, 8};

  const auto trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 2u * 2u * 2u * 2u);
  // Dense indices in declaration order.
  for (std::size_t i = 0; i < trials.size(); ++i) EXPECT_EQ(trials[i].index, i);
  // First axis outermost, seed innermost.
  EXPECT_EQ(trials[0].num("a"), 1);
  EXPECT_EQ(trials[0].str("b"), "x");
  EXPECT_EQ(trials[0].mode, harness::RunMode::kHadoop);
  EXPECT_EQ(trials[0].seed, 7u);
  EXPECT_EQ(trials[1].seed, 8u);
  EXPECT_EQ(trials[2].mode, harness::RunMode::kUPlus);
  EXPECT_EQ(trials[4].str("b"), "y");
  EXPECT_EQ(trials[8].num("a"), 2);
  EXPECT_EQ(trials.back().num("a"), 2);
  EXPECT_EQ(trials.back().str("b"), "y");
  EXPECT_EQ(trials.back().mode, harness::RunMode::kUPlus);
  EXPECT_EQ(trials.back().seed, 8u);
}

TEST(ExpandTrials, DefaultsMatchTheOldBenches) {
  // No seeds and no modes: one trial per axis point, seeded with the
  // WorldConfig default the former bench binaries ran with.
  ScenarioSpec spec;
  spec.axes = {int_axis("files", {2, 3, 4})};
  const auto trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 3u);
  for (const Trial& t : trials) {
    EXPECT_EQ(t.seed, harness::WorldConfig{}.seed);
    EXPECT_FALSE(t.mode.has_value());
  }
}

TEST(ExpandTrials, SeedOverrideReplacesTheSeedList) {
  ScenarioSpec spec;
  spec.axes = {int_axis("files", {2, 4})};
  spec.seeds = {1, 2, 3};
  const auto trials = expand_trials(spec, 99);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[0].seed, 99u);
  EXPECT_EQ(trials[1].seed, 99u);
}

TEST(ExpandTrials, NoAxesYieldsOneTrialPerModeSeed) {
  ScenarioSpec spec;
  spec.modes = {harness::RunMode::kDPlus};
  const auto trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_TRUE(trials[0].params.empty());
  EXPECT_EQ(trials[0].label(), "mode=D+");
}

TEST(Trial, ParamLookupAndLabels) {
  ScenarioSpec spec;
  spec.axes = {int_axis("files", {4}), num_axis("prob", {0.1})};
  spec.modes = {harness::RunMode::kUPlus};
  const auto trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 1u);
  const Trial& t = trials[0];
  EXPECT_DOUBLE_EQ(t.num("files"), 4.0);
  EXPECT_EQ(t.str("files"), "4");          // integers print without decimals
  EXPECT_EQ(t.str("prob"), "0.10");
  EXPECT_EQ(t.find("nope"), nullptr);
  EXPECT_THROW(t.param("nope"), std::out_of_range);
  EXPECT_EQ(t.label(), "files=4 prob=0.10 mode=U+");
}

// ---- registry --------------------------------------------------------

ScenarioSpec trivial_spec(const SweepOptions&) { return ScenarioSpec{}; }

TEST(Registry, FindAndNaturalSortedSelect) {
  ExperimentRegistry registry;
  registry.add({"fig10", "ten", trivial_spec, false});
  registry.add({"fig7", "seven", trivial_spec, false});
  registry.add({"table2", "table", trivial_spec, false});
  EXPECT_EQ(registry.size(), 3u);
  ASSERT_NE(registry.find("fig7"), nullptr);
  EXPECT_EQ(registry.find("fig7")->description, "seven");
  EXPECT_EQ(registry.find("nope"), nullptr);

  const auto all = registry.select("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "fig7");  // natural order: 7 before 10
  EXPECT_EQ(all[1]->name, "fig10");
  EXPECT_EQ(all[2]->name, "table2");

  const auto figs = registry.select("fig");
  ASSERT_EQ(figs.size(), 2u);
  EXPECT_EQ(figs[0]->name, "fig7");
}

TEST(Registry, DuplicateNameRejected) {
  ExperimentRegistry registry;
  registry.add({"fig7", "one", trivial_spec, false});
  EXPECT_THROW(registry.add({"fig7", "two", trivial_spec, false}), std::invalid_argument);
}

TEST(Registry, OnRequestExperimentsNeedAnExplicitFilter) {
  ExperimentRegistry registry;
  registry.add({"fig7", "figure", trivial_spec, false});
  registry.add({"micro", "wall clock", trivial_spec, /*only_on_request=*/true});
  const auto plain = registry.select("");
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0]->name, "fig7");
  const auto named = registry.select("micro");
  ASSERT_EQ(named.size(), 1u);
  EXPECT_EQ(named[0]->name, "micro");
  EXPECT_EQ(registry.all().size(), 2u);
}

TEST(Registry, GlobalInstanceHoldsTheBenchRegistrations) {
  // The driver's registrations live in bench/*.cc (not linked here),
  // but the global instance must at least exist and be stable.
  EXPECT_EQ(&ExperimentRegistry::instance(), &ExperimentRegistry::instance());
}

// ---- runner ----------------------------------------------------------

ScenarioSpec synthetic_spec(std::atomic<int>* runs = nullptr) {
  // A spec whose result is a pure function of the trial — runnable at
  // any job count with identical results.
  ScenarioSpec spec;
  spec.title = "synthetic";
  spec.baseline_series = "Hadoop";
  spec.axes = {int_axis("x", {1, 2, 3, 4})};
  spec.modes = {harness::RunMode::kHadoop, harness::RunMode::kDPlus};
  spec.run = [runs](const Trial& trial) {
    if (runs) runs->fetch_add(1);
    TrialResult result;
    result.trial = trial;
    result.ok = true;
    result.elapsed_seconds =
        trial.num("x") * (trial.mode == harness::RunMode::kHadoop ? 10.0 : 4.0);
    result.set_metric("x_squared", trial.num("x") * trial.num("x"));
    return result;
  };
  return spec;
}

TEST(SweepRunner, SerialRunCoversEveryTrialInOrder) {
  std::atomic<int> runs{0};
  SweepOptions options;
  const auto results = SweepRunner(options).run(synthetic_spec(&runs));
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(runs.load(), 8);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].trial.index, i);
  }
}

TEST(SweepRunner, ThrownErrorsAreCapturedNotFatal) {
  ScenarioSpec spec;
  spec.axes = {int_axis("x", {1, 2, 3})};
  spec.run = [](const Trial& trial) -> TrialResult {
    if (trial.num("x") == 2) throw TrialFailure("x=2 went sideways");
    TrialResult result;
    result.trial = trial;
    result.ok = true;
    result.elapsed_seconds = 1.0;
    return result;
  };
  const auto results = SweepRunner(SweepOptions{}).run(spec);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error, "x=2 went sideways");
  // The failed trial still carries its identity for reporting.
  EXPECT_EQ(results[1].trial.num("x"), 2);
  EXPECT_TRUE(results[2].ok);

  ExperimentRun run{"t", spec, results};
  EXPECT_EQ(run.failed_count(), 1u);
  EXPECT_FALSE(run.all_ok());
  std::ostringstream os;
  render_report(run, os);
  EXPECT_NE(os.str().find("FAILED trial [x=2]: x=2 went sideways"), std::string::npos);
}

TEST(SweepRunner, NullRunYieldsOneTrivialOkTrial) {
  ScenarioSpec spec;  // render-only, like table2
  const auto results = SweepRunner(SweepOptions{}).run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
}

TEST(SweepRunner, ParallelOutputIsByteIdenticalToSerial) {
  const ScenarioSpec spec = synthetic_spec();

  auto render_all = [&](std::size_t jobs) {
    SweepOptions options;
    options.jobs = jobs;
    ExperimentRun run{"synthetic", spec, SweepRunner(options).run(spec)};
    std::ostringstream table;
    render_report(run, table);
    std::ostringstream json;
    write_json(json, {run}, SweepOptions{});  // identical header either way
    return table.str() + "\n---\n" + json.str();
  };

  const std::string serial = render_all(1);
  EXPECT_EQ(serial, render_all(4));
  EXPECT_EQ(serial, render_all(8));
  EXPECT_NE(serial.find("impr(D+)"), std::string::npos);
}

TEST(SweepRunner, RealWorldTrialProducesABreakdown) {
  // One genuinely simulated trial through the standard helper.
  ScenarioSpec spec;
  spec.axes = {int_axis("files", {2})};
  spec.modes = {harness::RunMode::kDPlus};
  spec.run = [](const Trial& trial) {
    wl::WordCountParams params;
    params.num_files = static_cast<std::size_t>(trial.num("files"));
    params.bytes_per_file = 256_KB;
    wl::WordCount wc(params);
    harness::WorldConfig config;
    config.seed = trial.seed;
    return run_world_trial(config, *trial.mode, wc, trial);
  };
  const auto results = SweepRunner(SweepOptions{}).run(spec);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_GT(results[0].elapsed_seconds, 0.0);
  EXPECT_EQ(results[0].maps, 2u);
}

// ---- JSON ------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
}

TEST(Json, WriterProducesTheExpectedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "fig9");
  w.kv("count", 3);
  w.kv("ratio", 0.5);
  w.kv("nan_is", std::numeric_limits<double>::quiet_NaN());
  w.kv("ok", true);
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"fig9\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"nan_is\": null,\n"
            "  \"ok\": true,\n"
            "  \"xs\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}");
}

TEST(Json, ResultSchemaRoundTripsTheTrialFields) {
  ScenarioSpec spec;
  spec.title = "schema check";
  spec.axes = {int_axis("files", {4})};
  spec.modes = {harness::RunMode::kUPlus};
  spec.run = [](const Trial& trial) {
    TrialResult result;
    result.trial = trial;
    result.ok = true;
    mr::JobProfile profile;
    profile.maps.resize(4);
    profile.node_local_maps = 3;
    fill_breakdown(result, profile);
    result.elapsed_seconds = 1.25;
    result.set_metric("speedup", 2.5);
    result.set_note("winner", "U+");
    return result;
  };
  SweepOptions options;
  options.seed = 123;
  ExperimentRun run{"schema", spec, SweepRunner(options).run(spec)};

  std::ostringstream os;
  write_json(os, {run}, options);
  const std::string json = os.str();
  for (const char* needle :
       {"\"schema\": \"mrapid-bench-results/v1\"", "\"name\": \"schema\"",
        "\"title\": \"schema check\"", "\"failed_trials\": 0", "\"files\": \"4\"",
        "\"mode\": \"U+\"", "\"seed\": 123", "\"ok\": true", "\"elapsed_s\": 1.25",
        "\"maps\": 4", "\"node_local_maps\": 3", "\"speedup\": 2.5",
        "\"winner\": \"U+\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle << " in:\n"
                                                    << json;
  }
  // Balanced braces/brackets — the cheap structural check without a
  // JSON library in the container.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Json, BreakdownIsWrittenOnlyForFilledTrials) {
  // An engine-benchmark trial (metrics only, like sim_core's) carries
  // no breakdown block; a trial that went through fill_breakdown does,
  // even when every phase in it is zero.
  ScenarioSpec spec;
  spec.title = "sink check";
  spec.axes = {int_axis("filled", {0, 1})};
  spec.run = [](const Trial& trial) {
    TrialResult result;
    result.trial = trial;
    result.ok = true;
    if (trial.num("filled") != 0) fill_breakdown(result, mr::JobProfile{});
    result.set_metric("events", 7);
    return result;
  };
  SweepOptions options;
  ExperimentRun run{"sink", spec, SweepRunner(options).run(spec)};

  std::ostringstream os;
  write_json(os, {run}, options);
  const std::string json = os.str();
  const std::size_t first = json.find("\"breakdown\": {");
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_EQ(json.find("\"breakdown\": {", first + 1), std::string::npos) << json;
  // The one block belongs to the second (filled) trial.
  EXPECT_GT(first, json.find("\"filled\": \"1\"")) << json;
}

// ---- series report sink ----------------------------------------------

TEST(Sink, SeriesReportUsesXAxisAndSkipsFailedTrials) {
  ScenarioSpec spec;
  spec.title = "t";
  spec.x_label = "file MB";
  spec.axes = {int_axis("file_mb", {5, 10})};
  spec.modes = {harness::RunMode::kHadoop};
  auto trials = expand_trials(spec);
  std::vector<TrialResult> results(trials.size());
  results[0].trial = trials[0];
  results[0].ok = true;
  results[0].elapsed_seconds = 3.0;
  results[1].trial = trials[1];
  results[1].ok = false;
  results[1].error = "deadline";

  const SeriesReport report = build_series_report(spec, results);
  EXPECT_DOUBLE_EQ(report.value("Hadoop", 5), 3.0);
  EXPECT_TRUE(std::isnan(report.value("Hadoop", 10)));
  EXPECT_NE(report.to_string().find("file MB"), std::string::npos);
}

TEST(Sink, CustomSeriesClosureNamesTheSeries) {
  ScenarioSpec spec;
  spec.axes = {int_axis("files", {1}), label_axis("cluster", {"A3x5"})};
  spec.modes = {harness::RunMode::kDPlus};
  spec.series = [](const Trial& trial) {
    return trial.mode_name() + "/" + trial.str("cluster");
  };
  const auto trials = expand_trials(spec);
  EXPECT_EQ(series_name(spec, trials[0]), "D+/A3x5");
}

// ---- flag parser -----------------------------------------------------

TEST(ArgParser, ParsesEveryFlagKind) {
  std::string s = "default";
  int i = 1;
  long long i64 = 2;
  std::uint64_t u64 = 3;
  std::size_t size = 4;
  double d = 0.5;
  bool flag = false;
  ArgParser parser("prog", "test");
  parser.add_string("s", &s, "");
  parser.add_int("i", &i, "");
  parser.add_int64("i64", &i64, "");
  parser.add_uint64("u64", &u64, "");
  parser.add_size("size", &size, "");
  parser.add_double("d", &d, "");
  parser.add_flag("flag", &flag, "");

  const char* argv[] = {"prog", "--s",    "hello", "--i", "-7",    "--i64", "1000000000000",
                        "--u64", "0x5EED", "--size", "8",  "--d", "0.25", "--flag"};
  EXPECT_TRUE(parser.parse(static_cast<int>(std::size(argv)), const_cast<char**>(argv)));
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(i, -7);
  EXPECT_EQ(i64, 1000000000000LL);
  EXPECT_EQ(u64, 0x5EEDu);  // base-0 parse accepts hex
  EXPECT_EQ(size, 8u);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(flag);
}

TEST(ArgParser, UnknownFlagAndBadValueAreUsageErrors) {
  {
    ArgParser parser("prog", "test");
    const char* argv[] = {"prog", "--nope"};
    EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
    EXPECT_EQ(parser.exit_code(), 2);
  }
  {
    int i = 0;
    ArgParser parser("prog", "test");
    parser.add_int("i", &i, "");
    const char* argv[] = {"prog", "--i", "banana"};
    EXPECT_FALSE(parser.parse(3, const_cast<char**>(argv)));
    EXPECT_EQ(parser.exit_code(), 2);
  }
  {
    int i = 0;
    ArgParser parser("prog", "test");
    parser.add_int("i", &i, "");
    const char* argv[] = {"prog", "--i"};  // missing value
    EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
    EXPECT_EQ(parser.exit_code(), 2);
  }
}

TEST(ArgParser, HelpStopsWithExitCodeZero) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(parser.exit_code(), 0);
}

// ---- workload factory ------------------------------------------------

TEST(WorkloadFactory, BuildsEveryKindAndRejectsUnknown) {
  WorkloadChoice choice;
  EXPECT_NE(make_workload(choice), nullptr);  // wordcount default
  choice.kind = "terasort";
  EXPECT_NE(make_workload(choice), nullptr);
  choice.kind = "pi";
  EXPECT_NE(make_workload(choice), nullptr);
  choice.kind = "sleep";
  EXPECT_THROW(make_workload(choice), std::invalid_argument);
}

TEST(WorkloadFactory, ClusterAndModeLookups) {
  EXPECT_FALSE(cluster_by_name("a3").racks.empty());
  EXPECT_FALSE(cluster_by_name("a2").racks.empty());
  EXPECT_THROW(cluster_by_name("a9"), std::invalid_argument);
  EXPECT_EQ(run_modes_by_name("all").size(), 4u);
  EXPECT_EQ(run_modes_by_name("auto"),
            std::vector<harness::RunMode>{harness::RunMode::kMRapidAuto});
  EXPECT_THROW(run_modes_by_name("warp"), std::invalid_argument);
  EXPECT_EQ(figure_modes().size(), 4u);
}

}  // namespace
}  // namespace mrapid::exp
