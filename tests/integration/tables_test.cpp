// Integration tests backing Tables 1-4: for each data type, the measured
// worst-case latency of Algorithm 1 matches the paper's upper-bound column
// exactly, beats the centralized folklore baseline, and sits above the
// paper's lower-bound column (with the unsafe variants violating it, covered
// in shift/theorems_test.cpp).

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime {
namespace {

using adt::Value;
using harness::AlgoKind;
using harness::RunSpec;

sim::ModelParams table_params() {
  sim::ModelParams p{5, 10.0, 2.0, 0.0};
  p.eps = p.optimal_eps();  // (1 - 1/n) u = 1.6, as the paper's examples assume
  return p;
}

/// Worst-case measured latencies under the max-delay adversary with a
/// closed-loop mixed workload.
harness::RunResult measure(const adt::DataType& type, AlgoKind algo, double X) {
  RunSpec spec;
  spec.params = table_params();
  spec.algo = algo;
  spec.X = X;
  spec.delays = std::make_shared<sim::ConstantDelay>(spec.params.d);
  spec.scripts = harness::random_scripts(type, spec.params.n, 6, 2024);
  auto result = harness::execute(type, spec);
  return result;
}

class TableTest : public ::testing::TestWithParam<double> {};  // X values

TEST_P(TableTest, Table1RmwRegisterUpperBounds) {
  const double X = GetParam();
  adt::RmwRegisterType reg;
  const auto p = table_params();
  const auto result = measure(reg, AlgoKind::kAlgorithmOne, X);
  EXPECT_NEAR(result.stats_for("read").max, p.d - X, 1e-9);
  EXPECT_NEAR(result.stats_for("write").max, X + p.eps, 1e-9);
  EXPECT_LE(result.stats_for("fetch_add").max, p.d + p.eps + 1e-9);
  EXPECT_TRUE(lin::check(reg, result.record).result.linearizable);
}

TEST_P(TableTest, Table2QueueUpperBounds) {
  const double X = GetParam();
  adt::QueueType queue;
  const auto p = table_params();
  const auto result = measure(queue, AlgoKind::kAlgorithmOne, X);
  EXPECT_NEAR(result.stats_for("peek").max, p.d - X, 1e-9);
  EXPECT_NEAR(result.stats_for("enqueue").max, X + p.eps, 1e-9);
  EXPECT_LE(result.stats_for("dequeue").max, p.d + p.eps + 1e-9);
  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
}

TEST_P(TableTest, Table3StackUpperBounds) {
  const double X = GetParam();
  adt::StackType st;
  const auto p = table_params();
  const auto result = measure(st, AlgoKind::kAlgorithmOne, X);
  EXPECT_NEAR(result.stats_for("peek").max, p.d - X, 1e-9);
  EXPECT_NEAR(result.stats_for("push").max, X + p.eps, 1e-9);
  EXPECT_LE(result.stats_for("pop").max, p.d + p.eps + 1e-9);
  EXPECT_TRUE(lin::check(st, result.record).result.linearizable);
}

TEST_P(TableTest, Table4TreeUpperBounds) {
  const double X = GetParam();
  adt::TreeType tree;
  const auto p = table_params();
  const auto result = measure(tree, AlgoKind::kAlgorithmOne, X);
  EXPECT_NEAR(result.stats_for("depth").max, p.d - X, 1e-9);
  EXPECT_NEAR(result.stats_for("insert").max, X + p.eps, 1e-9);
  EXPECT_NEAR(result.stats_for("remove").max, X + p.eps, 1e-9);
  EXPECT_TRUE(lin::check(tree, result.record).result.linearizable);
}

INSTANTIATE_TEST_SUITE_P(XValues, TableTest, ::testing::Values(0.0, 4.2, 8.4),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "X" + std::to_string(static_cast<int>(info.param * 10));
                         });

TEST(TableComparisonTest, AlgorithmOneBeatsCentralizedOnEveryClass) {
  // Sum over classes: with X = (d-eps)/2 every class is strictly below the
  // centralized baseline's worst case 2d.
  adt::QueueType queue;
  const auto p = table_params();
  const double X = (p.d - p.eps) / 2;

  const auto ours = measure(queue, AlgoKind::kAlgorithmOne, X);
  const auto central = measure(queue, AlgoKind::kCentralized, 0.0);

  for (const auto& [op, stats] : ours.latency) {
    EXPECT_LT(stats.max, 2 * p.d) << op;
  }
  // Centralized remote ops hit 2d under the max-delay adversary.
  double central_max = 0;
  for (const auto& [op, stats] : central.latency) central_max = std::max(central_max, stats.max);
  EXPECT_NEAR(central_max, 2 * p.d, 1e-9);
}

TEST(TableComparisonTest, WritePlusReadMatchesDPlusEps) {
  // Table 1's "Write + Read" row: |Write| + |Read| = (X+eps) + (d-X) = d+eps
  // for every X -- the tradeoff moves time between the two, never the sum.
  adt::RmwRegisterType reg;
  const auto p = table_params();
  for (const double X : {0.0, 2.0, 7.0}) {
    const auto result = measure(reg, AlgoKind::kAlgorithmOne, X);
    EXPECT_NEAR(result.stats_for("write").max + result.stats_for("read").max, p.d + p.eps,
                1e-9);
  }
}

TEST(TableComparisonTest, SumLowerBoundConsistency) {
  // d + min{eps,u,d/3} <= d + eps: the paper's upper bound for the sum is
  // tight when eps < d/3 and eps <= u (Section 6.1).
  const auto p = table_params();
  EXPECT_LE(p.d + p.m(), p.d + p.eps + 1e-12);
  EXPECT_DOUBLE_EQ(p.m(), p.eps);  // here eps = 1.6 < u = 2 < d/3 = 3.33
}

}  // namespace
}  // namespace lintime
