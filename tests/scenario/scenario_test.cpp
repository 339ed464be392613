// Tests for the scenario schema layer (scenario/scenario.hpp): structural
// validation on top of the TOML parse, plus the checked-in negative fixtures
// -- every bad file must die with a "file:line: message" error, never load.

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/expand.hpp"

#ifndef LINTIME_SCENARIO_FIXTURE_DIR
#define LINTIME_SCENARIO_FIXTURE_DIR "tests/scenario/fixtures"
#endif

namespace lintime::scenario {
namespace {

/// A minimal valid scenario with `extra` sections appended.
std::string minimal(const std::string& extra = "") {
  return "[scenario]\n"
         "name = \"t\"\n"
         "type = \"queue\"\n"
         "\n"
         "[model]\n"
         "n = 3\n"
         "d = 10.0\n"
         "u = 2.0\n"
         "eps = 1.0\n"
         "\n"
         "[workload]\n"
         "kind = \"random-scripts\"\n"
         "ops-per-proc = 2\n"
         "seed = 7\n" +
         extra;
}

std::string fail_msg(const std::string& text) {
  try {
    (void)parse_scenario(text, "t.toml");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a validation error for:\n" << text;
  return "";
}

TEST(ScenarioTest, MinimalScenarioLoads) {
  const auto sc = parse_scenario(minimal(), "t.toml");
  EXPECT_EQ(sc.name, "t");
  EXPECT_EQ(sc.type_name, "queue");
}

TEST(ScenarioTest, GridAndSweepKeysAccepted) {
  EXPECT_NO_THROW((void)parse_scenario(minimal("[grid]\naxis.x = [0, 1]\ntag.x = \"$x\"\n"),
                                       "t.toml"));
  EXPECT_NO_THROW((void)parse_scenario(
      minimal("[sweep.a]\nname = \"a/$x\"\naxis.x = [0, 1]\nset.model.n = 4\n"), "t.toml"));
}

TEST(ScenarioTest, RequiredPiecesEnforced) {
  EXPECT_NE(fail_msg("[model]\nn = 2\nd = 10.0\nu = 2.0\neps = 1.0\n"
                     "[workload]\nkind = \"random-scripts\"\nops-per-proc = 1\nseed = 1\n")
                .find("missing required section [scenario]"),
            std::string::npos);
  EXPECT_NE(fail_msg("[scenario]\ntype = \"queue\"\n").find("missing required key 'name'"),
            std::string::npos);
  EXPECT_NE(fail_msg("[scenario]\nname = \"t\"\ntype = \"queue\"\n"
                     "[workload]\nkind = \"random-scripts\"\nops-per-proc = 1\nseed = 1\n")
                .find("missing required section [model]"),
            std::string::npos);
  EXPECT_NE(fail_msg("[scenario]\nname = \"t\"\ntype = 3\n").find("must be a string"),
            std::string::npos);
}

TEST(ScenarioTest, UnknownSectionAndKeyRejected) {
  EXPECT_NE(fail_msg(minimal("[delayz]\nkind = \"constant\"\n")).find("unknown section"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[run]\nalgos = \"x\"\n")).find("unknown key 'algos'"),
            std::string::npos);
}

TEST(ScenarioTest, SweepKeyRules) {
  EXPECT_NE(fail_msg(minimal("[grid]\naxis.index = [1]\n")).find("reserved"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[grid]\nset.model.n = 4\n")).find("only allowed in [sweep.*]"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[sweep.a]\nset.scenario.name = \"x\"\n"))
                .find("targets unknown section"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[sweep.a]\nset.model.q = 1\n")).find("targets unknown key"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[sweep.a]\nbogus = 1\n")).find("unknown key 'bogus'"),
            std::string::npos);
  EXPECT_NE(fail_msg(minimal("[grid]\naxis.x = [1]\n[sweep.a]\naxis.y = [1]\n"))
                .find("cannot be mixed"),
            std::string::npos);
}

// Every checked-in negative fixture must fail to load-and-expand, and the
// error must carry the fixture path and a line number ("path:LINE: ...").
TEST(ScenarioTest, NegativeFixturesAllRejectedWithLocation) {
  const std::string dir = LINTIME_SCENARIO_FIXTURE_DIR;
  std::vector<std::string> fixtures;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".toml") fixtures.push_back(entry.path().string());
  }
  ASSERT_GE(fixtures.size(), 10u) << "fixture corpus went missing from " << dir;

  for (const std::string& path : fixtures) {
    try {
      const auto sc = load_scenario_file(path);
      (void)expand(sc);  // some fixtures are only detectable at expansion
      ADD_FAILURE() << path << " loaded and expanded without error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(path + ":", 0), 0u)
          << path << ": error lacks file:line prefix: " << msg;
      const std::size_t colon = msg.find(':', path.size() + 1);
      ASSERT_NE(colon, std::string::npos) << msg;
      const std::string line = msg.substr(path.size() + 1, colon - path.size() - 1);
      EXPECT_FALSE(line.empty()) << msg;
      EXPECT_EQ(line.find_first_not_of("0123456789"), std::string::npos)
          << path << ": non-numeric line in: " << msg;
    }
  }
}

// The simulator has one event scheduler: any [run] scheduler other than
// "ring" is rejected at its own line, and the error names the only value.
TEST(ScenarioTest, NonRingSchedulerRejectedNamingRing) {
  const std::string path = std::string(LINTIME_SCENARIO_FIXTURE_DIR) + "/bad_scheduler.toml";
  try {
    (void)expand(load_scenario_file(path));
    ADD_FAILURE() << path << " loaded and expanded without error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ":13:", 0), 0u) << msg;
    EXPECT_NE(msg.find("the only scheduler is ring"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace lintime::scenario
