// Edge-of-the-model parameters: zero delay uncertainty (u = 0), perfectly
// synchronized clocks (eps = 0), X at both ends of its range, n = 2, and
// combinations.  The formulas degrade gracefully: with u = 0 and eps = 0,
// pure mutators may respond instantly (X = 0) and the lower bounds
// (1-1/k)u = 0 and u/4 = 0 are vacuous, exactly as the paper's formulas say.

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::core {
namespace {

using adt::Value;
using harness::Call;
using harness::RunSpec;

TEST(EdgeParamsTest, ZeroUncertaintyZeroSkewInstantWrites) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 0.0, 0.0};
  spec.X = 0.0;
  spec.calls = {
      Call{0.0, 0, "write", Value{5}},
      Call{0.001, 1, "read", Value::nil()},
      Call{50.0, 2, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("write").max, 0.0);  // X + eps = 0
  EXPECT_TRUE(lin::check(reg, result.record).result.linearizable);
  EXPECT_EQ(result.record.ops[2].ret, Value{5});
}

TEST(EdgeParamsTest, ZeroUncertaintyRandomWorkloadsLinearizable) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RunSpec spec;
    spec.params = sim::ModelParams{3, 10.0, 0.0, 0.0};
    spec.X = 0.0;
    spec.scripts = harness::random_scripts(queue, 3, 4, seed);
    const auto result = harness::execute(queue, spec);
    EXPECT_TRUE(lin::check(queue, result.record).result.linearizable) << seed;
    for (const auto& s : result.final_states) EXPECT_EQ(s, result.final_states[0]);
  }
}

TEST(EdgeParamsTest, XAtUpperEndWithZeroSkew) {
  // eps = 0 allows X = d: accessors become instantaneous (d - X = 0) while
  // mutators pay the full d.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 1.0, 0.0};
  spec.X = spec.params.d;  // d - eps = d
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{50.0, 1, "peek", Value::nil()},
      Call{100.0, 2, "enqueue", Value{2}},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("peek").max, 0.0);
  EXPECT_DOUBLE_EQ(result.stats_for("enqueue").max, spec.params.d);
  EXPECT_EQ(result.record.ops[1].ret, Value{1});
  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
}

TEST(EdgeParamsTest, TwoProcessesMinimumSystem) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RunSpec spec;
    spec.params = sim::ModelParams{2, 10.0, 2.0, 1.0};
    spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, seed);
    spec.clock_offsets = {0.5, -0.5};
    spec.scripts = harness::random_scripts(queue, 2, 5, seed * 11);
    const auto result = harness::execute(queue, spec);
    EXPECT_TRUE(lin::check(queue, result.record).result.linearizable) << seed;
  }
}

TEST(EdgeParamsTest, UEqualsDFullUncertainty) {
  // Delays anywhere in [0, d]: the widest admissible band.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 10.0, 2.0};
  spec.delays = std::make_shared<sim::UniformRandomDelay>(0.0, 10.0, 3);
  spec.clock_offsets = {1.0, -1.0, 0.0};
  spec.scripts = harness::random_scripts(queue, 3, 5, 19);
  const auto result = harness::execute(queue, spec);
  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
}

TEST(EdgeParamsTest, InvalidParamsRejected) {
  EXPECT_THROW(sim::ModelParams({1, 10.0, 2.0, 1.0}).validate(), std::invalid_argument);
  EXPECT_THROW(sim::ModelParams({3, -1.0, 0.0, 0.0}).validate(), std::invalid_argument);
  EXPECT_THROW(sim::ModelParams({3, 10.0, 11.0, 1.0}).validate(), std::invalid_argument);
  EXPECT_THROW(sim::ModelParams({3, 10.0, 2.0, -0.5}).validate(), std::invalid_argument);
  EXPECT_NO_THROW(sim::ModelParams({2, 10.0, 0.0, 0.0}).validate());
}

}  // namespace
}  // namespace lintime::core
