// Behavioural tests for Algorithm 1: correct values, replica convergence,
// the Lemma 5 invariant (mutators execute in timestamp order at every
// process), and the line-2 timestamp back-dating regression test.

#include "core/algorithm_one.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::core {
namespace {

using adt::Value;
using harness::AlgoKind;
using harness::Call;
using harness::RunSpec;

sim::ModelParams params5() { return sim::ModelParams{5, 10.0, 2.0, (1.0 - 1.0 / 5) * 2.0}; }

TEST(AlgorithmOneTest, SingleWriteThenReadReturnsWrittenValue) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = params5();
  spec.calls = {
      Call{0.0, 0, "write", Value{42}},
      Call{50.0, 1, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  ASSERT_EQ(result.record.ops.size(), 2u);
  EXPECT_EQ(result.record.ops[1].ret, Value{42});
}

TEST(AlgorithmOneTest, ReadAtThirdProcessSeesRemoteWrite) {
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = params5();
  spec.calls = {
      Call{0.0, 3, "write", Value{7}},
      Call{100.0, 4, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{7});
}

TEST(AlgorithmOneTest, MixedOperationReturnsCorrectValue) {
  adt::RmwRegisterType reg;
  RunSpec spec;
  spec.params = params5();
  spec.calls = {
      Call{0.0, 0, "write", Value{10}},
      Call{50.0, 1, "fetch_add", Value{5}},
      Call{100.0, 2, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{10});
  EXPECT_EQ(result.record.ops[2].ret, Value{15});
}

TEST(AlgorithmOneTest, ReplicasConvergeAfterQuiescence) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params5();
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{0.0, 1, "enqueue", Value{2}},
      Call{0.5, 2, "enqueue", Value{3}},
      Call{30.0, 3, "dequeue", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  ASSERT_EQ(result.final_states.size(), 5u);
  for (const auto& state : result.final_states) {
    EXPECT_EQ(state, result.final_states[0]);
  }
}

TEST(AlgorithmOneTest, ConcurrentMutatorsOrderedByTimestampEverywhere) {
  // Two concurrent writes: all replicas must apply them in the same
  // (timestamp) order -- the one from the lower process id wins ties.
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = params5();
  spec.calls = {
      Call{0.0, 0, "write", Value{100}},
      Call{0.0, 1, "write", Value{200}},
      Call{50.0, 2, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  // Equal clock timestamps, tie broken by proc id: p1's write is later.
  EXPECT_EQ(result.record.ops[2].ret, Value{200});
  for (const auto& state : result.final_states) EXPECT_EQ(state, "reg:200");
}

TEST(AlgorithmOneTest, SkewedClocksStillLinearizable) {
  adt::QueueType queue;
  RunSpec spec;
  spec.params = params5();
  const double e = spec.params.eps;
  spec.clock_offsets = {e / 2, -e / 2, 0.0, e / 2, -e / 2};
  spec.calls = {
      Call{0.0, 0, "enqueue", Value{1}},
      Call{0.1, 1, "enqueue", Value{2}},
      Call{40.0, 2, "dequeue", Value::nil()},
      Call{40.0, 3, "peek", Value::nil()},
  };
  const auto result = harness::execute(queue, spec);
  EXPECT_TRUE(lin::check(queue, result.record).result.linearizable);
}

TEST(AlgorithmOneTest, ExecutedMutatorsInTimestampOrderLemma5) {
  // Lemma 5 invariant, checked directly against every replica's execution
  // log under a bursty concurrent workload with random delays.
  adt::QueueType queue;
  sim::WorldConfig config;
  config.type = &queue;
  config.params = params5();
  config.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 17);

  std::vector<AlgorithmOneProcess*> procs;
  sim::World world(config, [&](sim::ProcId) {
    auto p = std::make_unique<AlgorithmOneProcess>(
        queue, TimingPolicy::standard(config.params, 0.0));
    procs.push_back(p.get());
    return p;
  });
  for (int i = 0; i < 5; ++i) {
    world.invoke_at(0.0 + 0.3 * i, i, queue.op_id("enqueue"), Value{i});
    world.invoke_at(20.0 + 0.3 * i, i, queue.op_id("enqueue"), Value{10 + i});
  }
  world.run();

  for (const auto* proc : procs) {
    const auto& log = proc->executed();
    ASSERT_FALSE(log.empty());
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LT(log[i - 1].ts, log[i].ts)
          << "mutator executed out of timestamp order at index " << i;
    }
  }
}

TEST(AlgorithmOneTest, AopTimestampBackdatedByX) {
  // Regression for line 2: with back-dating, an accessor invoked right
  // after a mutator's response must be linearized after it even when X is
  // large (the mutator-then-accessor case of Lemma 6).
  adt::RegisterType reg;
  RunSpec spec;
  spec.params = params5();
  spec.X = spec.params.d - spec.params.eps;  // extreme X: fast mutators impossible... fast accessors
  const double mop_latency = spec.X + spec.params.eps;
  spec.calls = {
      Call{0.0, 0, "write", Value{1}},
      // Invoked just after the write responds at p0 (non-overlapping).
      Call{mop_latency + 0.001, 1, "read", Value::nil()},
  };
  const auto result = harness::execute(reg, spec);
  EXPECT_EQ(result.record.ops[1].ret, Value{1});
  EXPECT_TRUE(lin::check(reg, result.record).result.linearizable);
}

TEST(AlgorithmOneTest, InvalidXRejected) {
  sim::ModelParams p = params5();
  EXPECT_THROW(TimingPolicy::standard(p, -0.1), std::invalid_argument);
  EXPECT_THROW(TimingPolicy::standard(p, p.d - p.eps + 0.1), std::invalid_argument);
  EXPECT_NO_THROW(TimingPolicy::standard(p, 0.0));
  EXPECT_NO_THROW(TimingPolicy::standard(p, p.d - p.eps));
}

TEST(TimestampTest, LexicographicOrder) {
  EXPECT_LT((Timestamp{1.0, 5}), (Timestamp{2.0, 0}));
  EXPECT_LT((Timestamp{1.0, 0}), (Timestamp{1.0, 1}));
  EXPECT_EQ((Timestamp{1.0, 1}), (Timestamp{1.0, 1}));
  EXPECT_GT((Timestamp{1.5, 0}), (Timestamp{1.0, 9}));
}

}  // namespace
}  // namespace lintime::core
