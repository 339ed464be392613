// Integration tests for the model-level properties the paper's lower bounds
// assume of algorithms (Section 2.3) -- Eventual Quiescence and History
// Oblivion -- plus the end-to-end pipeline: synchronize clocks with the
// Lundelius-Lynch substrate, then run Algorithm 1 on the achieved skew.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "adt/queue_type.hpp"
#include "clocksync/lundelius_lynch.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "sim/world.hpp"

namespace lintime {
namespace {

using adt::Value;

TEST(ModelPropertiesTest, EventualQuiescence) {
  // Every complete admissible run with finitely many operations is finite:
  // the event queue drains, and the last step happens within one
  // message+settle window of the last response.
  adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = sim::ModelParams{4, 10.0, 2.0, 1.5};
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 9);
  spec.scripts = harness::random_scripts(queue, 4, 5, 77);
  const auto result = harness::execute(queue, spec);  // would throw on runaway

  double last_response = 0;
  for (const auto& op : result.record.ops) {
    last_response = std::max(last_response, op.response_real);
  }
  const double bound = last_response + spec.params.d + spec.params.u + spec.params.eps;
  EXPECT_LE(result.record.last_time(), bound);
}

TEST(ModelPropertiesTest, HistoryOblivionAcrossDelayAssignments) {
  // The same operation sequence executed solo at p0 leaves every process in
  // the same final state regardless of message delays and clock offsets --
  // the History Oblivion condition the chop/append constructions rely on.
  adt::QueueType queue;
  const std::vector<harness::ScriptOp> rho = {
      {"enqueue", Value{1}}, {"enqueue", Value{2}}, {"dequeue", Value::nil()},
      {"peek", Value::nil()}, {"enqueue", Value{3}},
  };

  auto run_with = [&](std::shared_ptr<sim::DelayModel> delays, std::vector<double> offsets) {
    harness::RunSpec spec;
    spec.params = sim::ModelParams{3, 10.0, 2.0, 1.5};
    spec.delays = std::move(delays);
    spec.clock_offsets = std::move(offsets);
    spec.scripts = {rho, {}, {}};
    return harness::execute(queue, spec).final_states;
  };

  const auto a = run_with(std::make_shared<sim::ConstantDelay>(10.0), {});
  const auto b = run_with(std::make_shared<sim::ConstantDelay>(8.0), {0.7, -0.7, 0.0});
  const auto c =
      run_with(std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 123), {-0.5, 0.5, 0.2});

  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  for (const auto& state : a) EXPECT_EQ(state, a[0]);
}

TEST(ModelPropertiesTest, ClockSyncThenAlgorithmOnePipeline) {
  // Start from badly skewed hardware clocks, synchronize to (1-1/n)u, and
  // run Algorithm 1 with the achieved logical offsets: linearizable.
  sim::ModelParams params{5, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  const std::vector<double> hardware = {3.0, -2.0, 5.0, 0.0, -4.0};
  const auto sync = clocksync::synchronize(
      params, hardware, std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 31));
  ASSERT_LE(sync.achieved_skew, params.eps + 1e-9);

  // Re-center the logical offsets (a common additive constant is
  // unobservable) and feed them to the algorithm run.
  std::vector<double> offsets = sync.logical_offsets;
  const double mean =
      std::accumulate(offsets.begin(), offsets.end(), 0.0) / static_cast<double>(offsets.size());
  for (auto& c : offsets) c -= mean;

  adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = params;
  spec.clock_offsets = offsets;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 32);
  spec.scripts = harness::random_scripts(queue, 5, 4, 55);
  const auto result = harness::execute(queue, spec);

  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
  for (const auto& state : result.final_states) EXPECT_EQ(state, result.final_states[0]);
}

TEST(ModelPropertiesTest, DeterministicReplayBitForBit) {
  // The simulator is deterministic: identical configurations produce
  // identical records (the property the record-level shifting machinery
  // depends on).
  adt::QueueType queue;
  auto run_once = [&queue] {
    harness::RunSpec spec;
    spec.params = sim::ModelParams{4, 10.0, 2.0, 1.5};
    spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 2024);
    spec.scripts = harness::random_scripts(queue, 4, 6, 2024);
    return harness::execute(queue, spec).record;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].real_time, b.steps[i].real_time);
    EXPECT_EQ(a.steps[i].proc, b.steps[i].proc);
    EXPECT_EQ(a.steps[i].trigger, b.steps[i].trigger);
  }
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].ret, b.ops[i].ret);
    EXPECT_EQ(a.ops[i].response_real, b.ops[i].response_real);
  }
}

}  // namespace
}  // namespace lintime
