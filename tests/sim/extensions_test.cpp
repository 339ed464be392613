// Tests for the model-extension knobs (clock drift, message loss): defaults
// preserve the paper's model exactly; the knobs do what they say.

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"
#include "sim/named_ops.hpp"
#include "sim/trace_io.hpp"
#include "sim/world.hpp"

namespace lintime::sim {
namespace {

using adt::Value;

/// Probe process exposing its local clock.
class ClockProbe : public Process {
 public:
  explicit ClockProbe(std::vector<double>& readings) : readings_(readings) {}
  void on_invoke(Context& ctx, adt::OpId, const adt::Value&) override {
    readings_.push_back(ctx.local_time());
    ctx.set_timer(10.0, Payload{});  // 10 local units
  }
  void on_message(Context&, ProcId, const Payload&) override {}
  void on_timer(Context& ctx, TimerId, const Payload&) override {
    readings_.push_back(ctx.local_time());
    ctx.respond(adt::Value::nil());
  }

 private:
  std::vector<double>& readings_;
};

TEST(ExtensionsTest, DriftingClockRunsFast) {
  const NamedOps probe_ops{"probe"};
  std::vector<double> readings;
  WorldConfig config;
  config.type = &probe_ops;
  config.params = ModelParams{2, 10.0, 2.0, 1.0};
  config.clock_rates = {1.1, 1.0};
  World world(config, [&](ProcId) { return std::make_unique<ClockProbe>(readings); });
  world.invoke_at(100.0, 0, probe_ops.op_id("probe"), Value::nil());
  world.run();
  ASSERT_EQ(readings.size(), 2u);
  EXPECT_NEAR(readings[0], 110.0, 1e-6);  // local = 1.1 * real
  EXPECT_NEAR(readings[1], 120.0, 1e-6);  // timer measured 10 LOCAL units
  // ...which took 10/1.1 real time:
  EXPECT_NEAR(world.record().steps.back().real_time, 100.0 + 10.0 / 1.1, 1e-6);
}

TEST(ExtensionsTest, UnitRatesReproduceBaseline) {
  adt::QueueType queue;
  auto run = [&queue](std::vector<double> rates) {
    harness::RunSpec spec;
    spec.params = ModelParams{3, 10.0, 2.0, 1.0};
    spec.scripts = harness::random_scripts(queue, 3, 4, 5);
    sim::WorldConfig config;
    config.type = &queue;
    config.params = spec.params;
    config.clock_rates = std::move(rates);
    World world(config, [&](ProcId) {
      return std::make_unique<core::AlgorithmOneProcess>(
          queue, core::TimingPolicy::standard(spec.params, 0.0));
    });
    world.invoke_at(0.0, 0, queue.op_id("enqueue"), Value{1});
    world.invoke_at(30.0, 1, queue.op_id("dequeue"), Value::nil());
    world.run();
    return world.record();
  };
  const auto a = run({});
  const auto b = run({1.0, 1.0, 1.0});
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].response_real, b.ops[i].response_real);
    EXPECT_EQ(a.ops[i].ret, b.ops[i].ret);
  }
}

TEST(ExtensionsTest, NonPositiveRateRejected) {
  adt::RegisterType reg;
  WorldConfig config;
  config.type = &reg;
  config.params = ModelParams{2, 10.0, 2.0, 1.0};
  config.clock_rates = {0.0, 1.0};
  EXPECT_THROW(World(config, [](ProcId) -> std::unique_ptr<Process> { return nullptr; }),
               std::invalid_argument);
}

TEST(ExtensionsTest, DropProbabilityDropsMessages) {
  adt::RegisterType reg;
  WorldConfig config;
  config.type = &reg;
  config.params = ModelParams{4, 10.0, 2.0, 1.0};
  config.drop_probability = 0.5;
  config.drop_seed = 7;
  World world(config, [&](ProcId) {
    return std::make_unique<core::AlgorithmOneProcess>(
        reg, core::TimingPolicy::standard(config.params, 0.0));
  });
  for (int i = 0; i < 10; ++i) world.invoke_at(i * 20.0, i % 4, reg.op_id("write"), Value{i});
  world.run();
  std::size_t dropped = 0;
  for (const auto& m : world.record().messages) {
    if (!m.received) ++dropped;
  }
  EXPECT_GT(dropped, 5u);
  EXPECT_LT(dropped, world.record().messages.size());
}

TEST(ExtensionsTest, ZeroDropKeepsReliability) {
  adt::RegisterType reg;
  WorldConfig config;
  config.type = &reg;
  config.params = ModelParams{3, 10.0, 2.0, 1.0};
  World world(config, [&](ProcId) {
    return std::make_unique<core::AlgorithmOneProcess>(
        reg, core::TimingPolicy::standard(config.params, 0.0));
  });
  world.invoke_at(0.0, 0, reg.op_id("write"), Value{1});
  world.run();
  for (const auto& m : world.record().messages) EXPECT_TRUE(m.received);
}

TEST(ExtensionsTest, SameDropSeedReproducesIdenticalRecord) {
  // The adversary's coin flips are a pure function of drop_seed, so two runs
  // with the same seed (and the same workload) must produce records that are
  // identical step for step -- the property the campaign executor's
  // determinism contract is built on.
  adt::QueueType queue;
  auto run = [&queue]() {
    harness::RunSpec spec;
    spec.params = ModelParams{4, 10.0, 2.0, 1.0};
    spec.scripts = harness::random_scripts(queue, 4, 5, 11);
    spec.drop_probability = 0.3;
    spec.drop_seed = 99;
    return harness::execute(queue, spec).record;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(record_to_string(a), record_to_string(b));
  std::size_t dropped = 0;
  for (const auto& m : a.messages) {
    if (!m.received) ++dropped;
  }
  EXPECT_GT(dropped, 0u);  // the adversary actually acted
}

TEST(ExtensionsTest, DifferentDropSeedChangesRecord) {
  adt::RegisterType reg;
  auto run = [&reg](std::uint64_t seed) {
    harness::RunSpec spec;
    spec.params = ModelParams{4, 10.0, 2.0, 1.0};
    spec.scripts = harness::random_scripts(reg, 4, 6, 3);
    spec.drop_probability = 0.5;
    spec.drop_seed = seed;
    std::size_t dropped = 0;
    for (const auto& m : harness::execute(reg, spec).record.messages) {
      if (!m.received) ++dropped;
    }
    return dropped;
  };
  // At p=0.5 over dozens of messages, two seeds agreeing on every flip would
  // mean the seed is ignored; drop counts differing is the cheap witness.
  EXPECT_NE(run(5), run(6));
}

TEST(ExtensionsTest, MessageLossBreaksLinearizabilityEventually) {
  // With the reliability assumption violated, some replica misses a mutator
  // forever and a later accessor there returns a stale value.
  adt::RegisterType reg;
  WorldConfig config;
  config.type = &reg;
  config.params = ModelParams{3, 10.0, 2.0, 1.0};
  config.drop_probability = 0.9;
  config.drop_seed = 3;
  World world(config, [&](ProcId) {
    return std::make_unique<core::AlgorithmOneProcess>(
        reg, core::TimingPolicy::standard(config.params, 0.0));
  });
  world.invoke_at(0.0, 0, reg.op_id("write"), Value{5});
  world.invoke_at(50.0, 1, reg.op_id("read"), Value::nil());
  world.run();
  const auto check = lin::check_linearizability(reg, world.record());
  EXPECT_FALSE(check.linearizable);  // the read at p1 never heard the write
}

}  // namespace
}  // namespace lintime::sim
