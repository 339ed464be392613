// Golden tests pinning scenario expansion and execution semantics:
//
//  1. the checked-in corpus digests (scenarios/digests.txt) -- a silent
//     change to expansion (canonicalization, ordering, defaults) cannot
//     masquerade as a no-op;
//  2. byte-identity of the historical grids: the scenario files that
//     replaced the hard-coded campaign_runner grids must produce JSON
//     artifacts byte-identical to the seed-commit output (checked in under
//     tests/scenario/golden/);
//  3. 60-seed record equivalence for the adversarial corpus scenarios:
//     every job replays byte-identically across two independent expansions
//     and matches its pinned record digest (golden/sixty_seeds.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/sink.hpp"
#include "harness/runner.hpp"
#include "record_pins.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"
#include "sim/trace_io.hpp"

#ifndef LINTIME_SCENARIO_DIR
#define LINTIME_SCENARIO_DIR "scenarios"
#endif
#ifndef LINTIME_SCENARIO_GOLDEN_DIR
#define LINTIME_SCENARIO_GOLDEN_DIR "tests/scenario/golden"
#endif

namespace lintime::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioCampaign load(const std::string& name, const std::vector<AxisOverride>& ov = {}) {
  return expand(load_scenario_file(std::string(LINTIME_SCENARIO_DIR) + "/" + name + ".toml"),
                ov);
}

/// The JSON and CSV artifacts of one scenario run, exactly as
/// `campaign_runner --json/--csv` write them.
struct Artifacts {
  std::string json;
  std::string csv;
};

Artifacts run_scenario(const std::string& name, const std::vector<AxisOverride>& ov = {}) {
  const auto campaign = load(name, ov);
  const auto result = campaign::run_campaign(campaign.spec);
  std::ostringstream json;
  campaign::write_json(json, result);
  std::ostringstream csv;
  campaign::write_csv(csv, result);
  return {json.str(), csv.str()};
}

std::string golden(const std::string& file) {
  return read_file(std::string(LINTIME_SCENARIO_GOLDEN_DIR) + "/" + file);
}

TEST(ScenarioGoldenTest, CorpusDigestsMatchCheckedInFile) {
  const std::string dir = LINTIME_SCENARIO_DIR;
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".toml") names.push_back(entry.path().stem().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 10u) << "scenario corpus went missing from " << dir;

  std::string computed;
  for (const std::string& name : names) {
    const auto campaign = load(name);
    computed += name + " " + campaign_digest(campaign) + " " +
                std::to_string(campaign.spec.jobs.size()) + "\n";
  }
  EXPECT_EQ(computed, read_file(dir + "/digests.txt"))
      << "expansion semantics changed; regenerate with campaign_runner --digests "
         "if intentional";
}

// The five historical grids, byte-identical to the seed-commit artifacts.
TEST(ScenarioGoldenTest, RobustnessGridByteIdentical) {
  EXPECT_EQ(run_scenario("robustness").json, golden("robustness.json"));
}

// The tradeoff and serving grids pin their CSV too, so write_csv is held
// byte-identical as well.
TEST(ScenarioGoldenTest, TradeoffGridByteIdentical) {
  const Artifacts out = run_scenario("tradeoff");
  EXPECT_EQ(out.json, golden("tradeoff.json"));
  EXPECT_EQ(out.csv, golden("tradeoff.csv"));
}

TEST(ScenarioGoldenTest, LatencyGridByteIdentical) {
  EXPECT_EQ(run_scenario("latency").json, golden("latency.json"));
}

TEST(ScenarioGoldenTest, Table2BenchByteIdentical) {
  EXPECT_EQ(run_scenario("table2_queues").json, golden("table2_queues.json"));
}

TEST(ScenarioGoldenTest, ServingGridByteIdenticalAt100k) {
  const Artifacts out = run_scenario("serving", {{"ops", {"100000"}}});
  EXPECT_EQ(out.json, golden("serving_100k.json"));
  EXPECT_EQ(out.csv, golden("serving_100k.csv"));
}

/// Expands `name` twice with a 60-value seed axis (other axes pinned by
/// `extra` overrides), runs every job from both expansions, and requires
/// byte-identical records that match their pinned digests
/// (golden/sixty_seeds.txt).  Two independent expansions, because seeded
/// delay models are stateful and must not be reused across runs.
void check_sixty_seeds(const std::string& name, std::vector<AxisOverride> extra) {
  static const pins::RecordPins pins(std::string(LINTIME_SCENARIO_GOLDEN_DIR) +
                                     "/sixty_seeds.txt");
  std::vector<std::string> seeds;
  for (int s = 1; s <= 60; ++s) seeds.push_back(std::to_string(s));
  extra.push_back({"seed", seeds});

  const auto a = load(name, extra);
  const auto b = load(name, extra);
  ASSERT_EQ(a.spec.jobs.size(), 60u);
  ASSERT_EQ(b.spec.jobs.size(), 60u);

  for (std::size_t i = 0; i < a.spec.jobs.size(); ++i) {
    const auto ra = harness::execute(*a.spec.jobs[i].type, a.spec.jobs[i].spec);
    const auto rb = harness::execute(*b.spec.jobs[i].type, b.spec.jobs[i].spec);
    ASSERT_EQ(sim::record_to_string(ra.record), sim::record_to_string(rb.record))
        << name << " job " << a.spec.jobs[i].name << " diverged across replays";
    // Job i has seed i + 1: the seed axis is the only one with several values.
    pins.expect(name, i + 1, a.spec.jobs[i].spec.record_detail, ra.record);
  }
}

TEST(ScenarioGoldenTest, CrashScenarioSixtySeedDeterminism) {
  check_sixty_seeds("crash_mr", {{"xfrac", {"1"}}});
}

TEST(ScenarioGoldenTest, AdversaryMatrixSixtySeedDeterminism) {
  check_sixty_seeds("adversary_matrix", {{"xfrac", {"0.5"}}});
}

TEST(ScenarioGoldenTest, PartitionHealSixtySeedDeterminism) {
  check_sixty_seeds("partition_heal", {});
}

}  // namespace
}  // namespace lintime::scenario
