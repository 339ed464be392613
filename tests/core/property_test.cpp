// Property sweep: for every shipped data type, across process counts, X
// values, clock-skew patterns, delay models and seeds, every complete run of
// Algorithm 1 is linearizable (checked by the Wing-Gong checker) and all
// replicas converge.  This is the executable counterpart of Theorem 6.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "adt/counter_type.hpp"
#include "adt/deque_type.hpp"
#include "adt/max_register_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::core {
namespace {

using harness::AlgoKind;
using harness::RunSpec;

// (type index, n, X fraction of [0, d-eps], delay mode, seed)
using Param = std::tuple<int, int, double, int, int>;

std::unique_ptr<adt::DataType> make_type(int idx) {
  switch (idx) {
    case 0: return std::make_unique<adt::RegisterType>();
    case 1: return std::make_unique<adt::RmwRegisterType>();
    case 2: return std::make_unique<adt::QueueType>();
    case 3: return std::make_unique<adt::StackType>();
    case 4: return std::make_unique<adt::TreeType>();
    case 5: return std::make_unique<adt::SetType>();
    case 6: return std::make_unique<adt::CounterType>();
    case 7: return std::make_unique<adt::PoolType>();
    case 8: return std::make_unique<adt::MaxRegisterType>();
    default: return std::make_unique<adt::DequeType>();
  }
}

const char* type_name(int idx) {
  const char* names[] = {"Register", "RmwRegister", "Queue",       "Stack", "Tree",
                         "Set",      "Counter",     "Pool",        "MaxRegister",
                         "Deque"};
  return names[idx];
}

class LinearizabilityPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(LinearizabilityPropertyTest, AllRunsLinearizableAndConvergent) {
  const auto [type_idx, n, x_fraction, delay_mode, seed] = GetParam();
  auto type = make_type(type_idx);

  RunSpec spec;
  spec.params = sim::ModelParams{n, 10.0, 2.0, (1.0 - 1.0 / n) * 2.0};
  spec.params.validate();
  spec.X = x_fraction * (spec.params.d - spec.params.eps);

  // Adversarial skew: alternate the extremes of the admissible band.
  spec.clock_offsets.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    spec.clock_offsets[static_cast<std::size_t>(i)] =
        (i % 2 == 0 ? spec.params.eps / 2 : -spec.params.eps / 2);
  }

  switch (delay_mode) {
    case 0:
      spec.delays = std::make_shared<sim::ConstantDelay>(spec.params.d);
      break;
    case 1:
      spec.delays = std::make_shared<sim::ConstantDelay>(spec.params.min_delay());
      break;
    default:
      spec.delays = std::make_shared<sim::UniformRandomDelay>(
          spec.params.min_delay(), spec.params.d, static_cast<std::uint64_t>(seed));
      break;
  }

  spec.scripts = harness::random_scripts(*type, n, /*ops_per_proc=*/4,
                                         static_cast<std::uint64_t>(seed * 1000 + type_idx));
  spec.script_gap = 0.0;

  const auto result = harness::execute(*type, spec);

  // Every invocation responded.
  for (const auto& op : result.record.ops) {
    EXPECT_TRUE(op.complete()) << op.op;
  }
  EXPECT_EQ(result.record.ops.size(), static_cast<std::size_t>(n) * 4);

  // Linearizable.
  const auto check = lin::check(*type, result.record).result;
  EXPECT_TRUE(check.linearizable)
      << type->name() << " run not linearizable (n=" << n << ", X=" << spec.X
      << ", delay_mode=" << delay_mode << ", seed=" << seed << ")";

  // All replicas converge to the same state.
  for (const auto& state : result.final_states) {
    EXPECT_EQ(state, result.final_states[0]);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<Param>& info) {
  const int type_idx = std::get<0>(info.param);
  const int n = std::get<1>(info.param);
  const double x_fraction = std::get<2>(info.param);
  const int delay_mode = std::get<3>(info.param);
  const int seed = std::get<4>(info.param);
  return std::string(type_name(type_idx)) + "_n" + std::to_string(n) + "_x" +
         std::to_string(static_cast<int>(x_fraction * 100)) + "_d" +
         std::to_string(delay_mode) + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearizabilityPropertyTest,
    ::testing::Combine(::testing::Range(0, 10),           // all types
                       ::testing::Values(2, 3, 5),        // n
                       ::testing::Values(0.0, 0.5, 1.0),  // X fraction
                       ::testing::Values(0, 1, 2),        // delay mode
                       ::testing::Values(1, 2)),          // seed
    sweep_name);

}  // namespace
}  // namespace lintime::core
