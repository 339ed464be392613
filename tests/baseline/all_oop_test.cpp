// The all-OOP baseline (Algorithm 1 with the category-erasing decorator):
// every operation costs d+eps; still linearizable.

#include "baseline/all_oop.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::baseline {
namespace {

using adt::Value;
using harness::AlgoKind;
using harness::Call;
using harness::RunSpec;

TEST(AllMixedDecoratorTest, ErasesCategories) {
  adt::QueueType queue;
  AllMixedDataType wrapped(queue);
  for (const auto& spec : wrapped.ops()) {
    EXPECT_EQ(spec.category, adt::OpCategory::kMixed) << spec.name;
  }
  EXPECT_EQ(wrapped.ops().size(), queue.ops().size());
}

TEST(AllMixedDecoratorTest, ForwardsSemantics) {
  adt::QueueType queue;
  AllMixedDataType wrapped(queue);
  auto s = wrapped.make_initial_state();
  s->apply("enqueue", Value{4});
  EXPECT_EQ(s->apply("peek", Value::nil()), Value{4});
}

TEST(AllOopBaselineTest, EveryOperationCostsDPlusEps) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kAllOop;
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{30.0, 1, "peek", Value::nil()},
      Call{60.0, 2, "dequeue", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  const double expected = spec.params.d + spec.params.eps;
  EXPECT_DOUBLE_EQ(result.stats_for("enqueue").max, expected);
  EXPECT_DOUBLE_EQ(result.stats_for("peek").max, expected);
  EXPECT_DOUBLE_EQ(result.stats_for("dequeue").max, expected);
}

TEST(AllOopBaselineTest, StillLinearizableUnderRandomWorkload) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.algo = AlgoKind::kAllOop;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 3);
  spec.scripts = harness::random_scripts(queue, 3, 4, 21);
  const auto result = harness::execute(queue, spec);
  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
}

TEST(AllOopBaselineTest, SlowerThanSpecializedAlgorithmForAccessors) {
  adt::QueueType queue;
  RunSpec fast;
  fast.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
  fast.algo = AlgoKind::kAlgorithmOne;
  fast.X = fast.params.d - fast.params.eps;  // accessors at d-X = eps
  fast.calls = {Call{0.0, 0, "peek", Value::nil()}};
  const auto fast_result = harness::execute(queue, fast);

  RunSpec slow = fast;
  slow.algo = AlgoKind::kAllOop;
  const auto slow_result = harness::execute(queue, slow);

  EXPECT_LT(fast_result.stats_for("peek").max, slow_result.stats_for("peek").max);
}

}  // namespace
}  // namespace lintime::baseline
