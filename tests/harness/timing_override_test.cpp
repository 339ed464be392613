// Tests for RunSpec::timing, the explicit timer-constant override used to
// run unsafe Algorithm 1 variants through the harness.

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::harness {
namespace {

using adt::Value;

sim::ModelParams params3() { return sim::ModelParams{3, 10.0, 2.0, 1.5}; }

TEST(TimingOverrideTest, CustomAopLatencyIsApplied) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params3();
  core::TimingPolicy timing = core::TimingPolicy::standard(spec.params, 0.0);
  timing.aop_respond = 3.25;
  spec.timing = timing;
  spec.calls = {Call{0.0, 0, "peek", Value::nil()}};
  const auto result = execute(queue, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("peek").max, 3.25);
}

TEST(TimingOverrideTest, UnsafeOopLatencyBreaksConcurrentDequeues) {
  // Through the harness: shrink the OOP path below d and race two dequeues.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params3();
  core::TimingPolicy timing = core::TimingPolicy::standard(spec.params, 0.0);
  timing.execute_delay = 1.0;  // |OOP| = (d-u) + 1 = 9 < d
  spec.timing = timing;
  spec.scripts = {{{"enqueue", Value{7}}}, {}, {}};
  spec.calls = {
      Call{40.0, 1, "dequeue", Value::nil()},
      Call{40.0, 2, "dequeue", Value::nil()},
  };
  const auto result = execute(queue, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{7});
  EXPECT_EQ(result.record.ops[2].ret, Value{7});  // both claim the head
  EXPECT_FALSE(lin::check(queue, result.record).result.linearizable);
}

TEST(TimingOverrideTest, DefaultDerivesFromX) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params3();
  spec.X = 4.0;
  spec.calls = {Call{0.0, 0, "peek", Value::nil()}};
  const auto result = execute(queue, spec);
  EXPECT_DOUBLE_EQ(result.stats_for("peek").max, spec.params.d - 4.0);
}

TEST(TimingOverrideTest, BaselinesIgnoreInvalidXWhenTimingUnused) {
  // A centralized run must not validate Algorithm-1 timing it never uses.
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params3();
  spec.algo = AlgoKind::kCentralized;
  spec.X = 9999.0;  // would be rejected by TimingPolicy::standard
  spec.calls = {Call{0.0, 1, "enqueue", Value{1}}};
  EXPECT_NO_THROW((void)execute(queue, spec));
}

}  // namespace
}  // namespace lintime::harness
