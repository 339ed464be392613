// Tests for the fast sequentially consistent baseline: zero-latency
// accessors and pure mutators, read-your-writes, SC always holds, and the
// SC-vs-linearizability gap is exhibited concretely.

#include "baseline/seq_consistent.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "lin/sc_checker.hpp"

namespace lintime::baseline {
namespace {

using adt::Value;
using harness::AlgoKind;
using harness::Call;
using harness::RunSpec;

RunSpec base_spec(int n = 3) {
  RunSpec spec;
  spec.params = sim::ModelParams{n, 10.0, 2.0, (1.0 - 1.0 / n) * 2.0};
  spec.algo = AlgoKind::kSeqConsistent;
  return spec;
}

TEST(SeqConsistentTest, PureMutatorRespondsInstantly) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.calls = {Call{0.0, 0, "write", Value{5}}};
  const auto result = harness::execute(reg, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("write").max, 0.0);
}

TEST(SeqConsistentTest, QuietAccessorRespondsInstantly) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.calls = {Call{0.0, 1, "read", Value::nil()}};
  const auto result = harness::execute(reg, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("read").max, 0.0);
}

TEST(SeqConsistentTest, ReadYourWritesWaitsForLocalApply) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.calls = {
      Call{0.0, 0, "write", Value{7}},
      Call{1.0, 0, "read", Value::nil()},  // own write still unapplied
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{7});
  // The read waited until the write executed locally at d + eps, i.e. it
  // responded at time ~ d + eps > 1.
  EXPECT_GT(result.record.ops[1].response_real, spec.params.d);
}

TEST(SeqConsistentTest, RemoteReadMayBeStaleButScHolds) {
  adt::RegisterType reg;
  auto spec = base_spec();
  spec.calls = {
      Call{0.0, 0, "write", Value{5}},
      Call{1.0, 1, "read", Value::nil()},  // before the announcement lands
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{0});  // stale
  EXPECT_FALSE(lin::check(reg, result.record).result.linearizable);
  EXPECT_TRUE(lin::check_sequential_consistency(reg, result.record).linearizable);
}

TEST(SeqConsistentTest, MixedOpsStillPayFullPrice) {
  adt::RmwRegisterType reg;
  auto spec = base_spec();
  spec.calls = {Call{0.0, 0, "fetch_add", Value{1}}};
  const auto result = harness::execute(reg, spec);
  EXPECT_NEAR(result.stats_for("fetch_add").max, spec.params.d + spec.params.eps, 1e-6);
}

TEST(SeqConsistentTest, ReplicasConverge) {
  adt::QueueType queue;
  auto spec = base_spec();
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 4);
  spec.scripts = harness::random_scripts(queue, 3, 5, 31);
  const auto result = harness::execute(queue, spec);
  // Convergence of the replicated state (final_states not populated for this
  // baseline through the harness; check via SC of the full history instead).
  EXPECT_TRUE(lin::check_sequential_consistency(queue, result.record).linearizable);
}

class ScSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScSweep, AlwaysSequentiallyConsistent) {
  const int seed = GetParam();
  adt::QueueType queue;
  auto spec = base_spec(4);
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0,
                                                          static_cast<std::uint64_t>(seed));
  spec.clock_offsets = {0.7, -0.7, 0.3, -0.3};
  spec.scripts = harness::random_scripts(queue, 4, 4, static_cast<std::uint64_t>(seed) * 7 + 1);
  const auto result = harness::execute(queue, spec);
  for (const auto& op : result.record.ops) EXPECT_TRUE(op.complete());
  EXPECT_TRUE(lin::check_sequential_consistency(queue, result.record).linearizable)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace lintime::baseline
