// Tests for Construction 1 (the paper's explicit linearization), validating
// Lemmas 5, 6 and 7 directly on Algorithm 1 runs, including a parameterized
// sweep where the construction must agree with the search-based checker.

#include "core/construction.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/tree_type.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "sim/world.hpp"

namespace lintime::core {
namespace {

using adt::Value;

struct RunWithReplicas {
  sim::RunRecord record;
  std::vector<const AlgorithmOneProcess*> replicas;
  // Keep the world alive so replica pointers stay valid.
  std::shared_ptr<sim::World> world;
};

/// Runs Algorithm 1 on a workload and returns record plus replica handles.
RunWithReplicas run(const adt::DataType& type, const sim::ModelParams& params, double X,
                    const std::vector<harness::Call>& calls,
                    std::shared_ptr<sim::DelayModel> delays = nullptr,
                    std::vector<double> offsets = {}) {
  RunWithReplicas out;
  sim::WorldConfig config;
  config.type = &type;
  config.params = params;
  config.delays = std::move(delays);
  config.clock_offsets = std::move(offsets);
  std::vector<const AlgorithmOneProcess*>* replicas = &out.replicas;
  out.world = std::make_shared<sim::World>(config, [&](sim::ProcId) {
    auto p = std::make_unique<AlgorithmOneProcess>(type, TimingPolicy::standard(params, X));
    replicas->push_back(p.get());
    return p;
  });
  for (const auto& call : calls) {
    out.world->invoke_at(call.when, call.proc, type.op_id(call.op), call.arg);
  }
  out.world->run();
  out.record = out.world->record();
  return out;
}

sim::ModelParams params4() { return sim::ModelParams{4, 10.0, 2.0, 1.5}; }

TEST(ConstructionTest, EmptyRunIsValid) {
  adt::QueueType queue;
  const auto r = run(queue, params4(), 0.0, {});
  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  EXPECT_TRUE(c.pi.empty());
}

TEST(ConstructionTest, SimpleWriteReadSequence) {
  adt::RegisterType reg;
  const auto r = run(reg, params4(), 0.0,
                     {{0.0, 0, "write", Value{5}}, {40.0, 1, "read", Value::nil()}});
  const auto c = build_construction(reg, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  ASSERT_EQ(c.pi.size(), 2u);
  EXPECT_EQ(c.pi[0].op, "write");
  EXPECT_EQ(c.pi[1].op, "read");
  EXPECT_EQ(c.pi[1].ret, Value{5});
}

TEST(ConstructionTest, ConcurrentMutatorsOrderedByTimestamp) {
  adt::QueueType queue;
  const auto r = run(queue, params4(), 0.0,
                     {{0.0, 0, "enqueue", Value{1}},
                      {0.0, 1, "enqueue", Value{2}},
                      {0.0, 2, "enqueue", Value{3}},
                      {50.0, 3, "dequeue", Value::nil()}});
  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  // Equal clocks: tie broken by process id.
  EXPECT_EQ(c.pi[0].arg, Value{1});
  EXPECT_EQ(c.pi[1].arg, Value{2});
  EXPECT_EQ(c.pi[2].arg, Value{3});
}

TEST(ConstructionTest, AccessorPlacedAfterSeenMutators) {
  adt::QueueType queue;
  // The peek at p1 is invoked long after the enqueue completes, so it must
  // be placed after the enqueue and return its value.
  const auto r = run(queue, params4(), 0.0,
                     {{0.0, 0, "enqueue", Value{9}}, {50.0, 1, "peek", Value::nil()}});
  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  ASSERT_EQ(c.pi.size(), 2u);
  EXPECT_EQ(c.pi[1].op, "peek");
  EXPECT_EQ(c.pi[1].ret, Value{9});
}

TEST(ConstructionTest, EarlyAccessorPlacedBeforeMutators) {
  adt::QueueType queue;
  // peek (invoked at 0, responds at d = 10) misses the enqueue invoked at 5
  // whose announcement reaches p1 only at 15: it returns nil and the
  // construction places it before the enqueue.
  const auto r = run(queue, params4(), 0.0,
                     {{0.0, 1, "peek", Value::nil()}, {5.0, 0, "enqueue", Value{9}}});
  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  ASSERT_EQ(c.pi.size(), 2u);
  EXPECT_EQ(c.pi[0].op, "peek");
  EXPECT_EQ(c.pi[0].ret, Value::nil());
}

TEST(ConstructionTest, SimultaneousAccessorSeesTimestampSmallerMutator) {
  adt::QueueType queue;
  // Both invoked at 0: the enqueue's announcement arrives at p1 exactly when
  // the peek's respond timer fires; receipt is processed first (the model's
  // boundary rule), the enqueue has the smaller timestamp, so the peek
  // drains it and returns 9.
  const auto r = run(queue, params4(), 0.0,
                     {{0.0, 1, "peek", Value::nil()}, {0.0, 0, "enqueue", Value{9}}});
  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  ASSERT_EQ(c.pi.size(), 2u);
  EXPECT_EQ(c.pi[0].op, "enqueue");
  EXPECT_EQ(c.pi[1].ret, Value{9});
}

TEST(ConstructionTest, AdjacentAccessorsSortedByTimestamp) {
  adt::RegisterType reg;
  const auto r = run(reg, params4(), 0.0,
                     {{0.0, 0, "read", Value::nil()},
                      {1.0, 1, "read", Value::nil()},
                      {2.0, 2, "read", Value::nil()}});
  const auto c = build_construction(reg, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  EXPECT_EQ(c.pi.size(), 3u);
}

class ConstructionSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ConstructionSweep, AgreesWithSearchChecker) {
  const auto [x_fraction, seed] = GetParam();
  adt::QueueType queue;
  const auto params = params4();
  const double X = x_fraction * (params.d - params.eps);

  // Random open-loop workload with spacing that admits one pending op per
  // process (worst latency is d+eps).
  std::vector<harness::Call> calls;
  unsigned rng = static_cast<unsigned>(seed) * 2654435761u + 17;
  auto next = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return rng >> 8;
  };
  const char* ops[] = {"enqueue", "dequeue", "peek"};
  for (int round = 0; round < 5; ++round) {
    for (int p = 0; p < params.n; ++p) {
      const char* op = ops[next() % 3];
      calls.push_back({round * 20.0 + (next() % 100) / 20.0, p, op,
                       std::string(op) == "enqueue" ? Value{static_cast<int>(next() % 5)}
                                                    : Value::nil()});
    }
  }
  const auto offsets = std::vector<double>{0.7, -0.7, 0.3, -0.3};
  const auto delays =
      std::make_shared<sim::UniformRandomDelay>(params.min_delay(), params.d,
                                                static_cast<std::uint64_t>(seed));
  const auto r = run(queue, params, X, calls, delays, offsets);

  const auto c = build_construction(queue, r.replicas, r.record);
  EXPECT_TRUE(c.valid()) << c.details;
  // And the search-based checker agrees the run is linearizable.
  EXPECT_TRUE(lin::check(queue, r.record).result.linearizable);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConstructionSweep,
                         ::testing::Combine(::testing::Values(0.0, 0.5, 1.0),
                                            ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace lintime::core
