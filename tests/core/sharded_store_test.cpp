// ShardedStore / ShardedServingProcess tests: keyed-envelope validation,
// deterministic key->shard routing, interned dispatch, replica convergence,
// and the locality property at keyspace scale -- the combined history of a
// 10^4-key store is linearizable, and so is every per-key restriction
// (checked through the component type's fast-path monitor).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adt/register_type.hpp"
#include "core/sharded_store.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "sim/world.hpp"

namespace lintime::core {
namespace {

using adt::Value;

TEST(ShardedStoreTest, ConstructorValidatesArguments) {
  adt::RegisterType reg;
  EXPECT_THROW(ShardedStore(reg, 0, 4), std::invalid_argument);
  EXPECT_THROW(ShardedStore(reg, -5, 4), std::invalid_argument);
  EXPECT_THROW(ShardedStore(reg, 10, 0), std::invalid_argument);
}

TEST(ShardedStoreTest, OpsMirrorComponentInOrder) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100, 4);
  ASSERT_EQ(store.ops().size(), reg.ops().size());
  for (std::size_t i = 0; i < store.ops().size(); ++i) {
    EXPECT_EQ(store.ops()[i].name, reg.ops()[i].name);
    EXPECT_EQ(store.ops()[i].category, reg.ops()[i].category);
    EXPECT_TRUE(store.ops()[i].takes_arg);  // every store op carries [key, inner]
    // Store OpId index == component OpId index, the invariant interned
    // dispatch relies on.
    EXPECT_EQ(store.op_id(store.ops()[i].name).index(), reg.op_id(reg.ops()[i].name).index());
  }
}

TEST(ShardedStoreTest, SplitValidatesEnvelope) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100, 4);
  EXPECT_THROW(static_cast<void>(store.split(Value{7})), std::invalid_argument);  // not a vec
  EXPECT_THROW(static_cast<void>(store.split(Value::nil())), std::invalid_argument);  // not a vec
  EXPECT_THROW(static_cast<void>(store.split(ShardedStore::keyed(100, Value{1}))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(store.split(ShardedStore::keyed(-1, Value{1}))),
               std::invalid_argument);

  const Value ok = ShardedStore::keyed(42, Value{7});
  const auto ka = store.split(ok);
  EXPECT_EQ(ka.key, 42);
  EXPECT_EQ(ka.inner->as_int(), 7);
}

TEST(ShardedStoreTest, RoutingIsDeterministicAndInRange) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100000, 16);
  std::set<int> used;
  for (std::int64_t key = 0; key < 100000; key += 97) {
    const int shard = store.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 16);
    EXPECT_EQ(shard, ShardedStore::shard_of(key, 16));  // pure function
    used.insert(shard);
  }
  // The multiplicative hash must actually spread a dense key range.
  EXPECT_EQ(used.size(), 16u);
}

TEST(ShardedStoreTest, KeyedStateAppliesPerKey) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  const auto state = store.initial_state();
  state->apply("write", ShardedStore::keyed(3, Value{30}));
  state->apply("write", ShardedStore::keyed(7, Value{70}));
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(3, Value::nil())).as_int(), 30);
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(7, Value::nil())).as_int(), 70);
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(500, Value::nil())).as_int(), 0);
}

TEST(ShardedStoreTest, CanonicalIgnoresUntouchedAndInitialValuedKeys) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  const auto a = store.initial_state();
  const auto b = store.initial_state();
  // b reads a key (materializing it) and writes-then-reverts another:
  // behaviourally both states are still the initial store.
  b->apply("read", ShardedStore::keyed(9, Value::nil()));
  b->apply("write", ShardedStore::keyed(5, Value{1}));
  b->apply("write", ShardedStore::keyed(5, Value{0}));
  EXPECT_EQ(a->canonical(), b->canonical());
  b->apply("write", ShardedStore::keyed(5, Value{2}));
  EXPECT_NE(a->canonical(), b->canonical());
}

TEST(ShardedStoreTest, SampleArgsCoverKeyspaceEnds) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  for (const auto& spec : store.ops()) {
    const auto args = store.sample_args(spec.name);
    ASSERT_FALSE(args.empty());
    std::set<std::int64_t> keys;
    for (const auto& arg : args) keys.insert(store.split(arg).key);
    EXPECT_EQ(keys, (std::set<std::int64_t>{0, 999}));
  }
}

// ---------------------------------------------------------------------------
// End-to-end serving runs
// ---------------------------------------------------------------------------

harness::RunResult run_serving(const ShardedStore& store, int n, int ops_per_proc,
                               std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params = sim::ModelParams{n, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = harness::AlgoKind::kShardedServing;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(spec.params.min_delay(),
                                                          spec.params.d, seed);
  spec.scripts = harness::sharded_scripts(store, n, ops_per_proc, seed * 31);
  return harness::execute(store, spec);
}

TEST(ShardedServingTest, RequiresShardedStoreType) {
  adt::RegisterType reg;
  harness::RunSpec spec;
  spec.params = sim::ModelParams{2, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = harness::AlgoKind::kShardedServing;
  EXPECT_THROW((void)harness::execute(reg, spec), std::invalid_argument);
}

TEST(ShardedServingTest, ReplicasConvergeAcrossProcesses) {
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 20, 5);
  ASSERT_EQ(result.final_states.size(), 4u);
  for (std::size_t p = 1; p < result.final_states.size(); ++p) {
    EXPECT_EQ(result.final_states[0], result.final_states[p]) << "process " << p;
  }
  EXPECT_EQ(result.record.ops.size(), 80u);
  for (const auto& op : result.record.ops) {
    EXPECT_TRUE(op.complete());
    EXPECT_TRUE(op.op_id.valid());  // interned dispatch end to end
  }
}

TEST(ShardedServingTest, ShardRestrictionsPartitionTheHistory) {
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 15, 7);
  std::size_t total = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto part = restrict_to_shard(result.record.ops, store, s);
    for (const auto& op : part) {
      EXPECT_EQ(store.shard_of(store.split(op.arg).key), s);
    }
    total += part.size();
  }
  EXPECT_EQ(total, result.record.ops.size());
}

TEST(ShardedServingTest, LocalityAtTenThousandKeys) {
  // The locality property at shard scale (Section 2.3): the COMBINED keyed
  // history of a >= 10^4-key store is linearizable w.r.t. the store, and
  // every per-key restriction is linearizable w.r.t. the component --
  // decided by the component's O(n log n) register monitor (fast path),
  // since sharded_scripts writes globally unique values.
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 75, 3);
  ASSERT_EQ(result.record.ops.size(), 300u);

  const auto combined = lin::check(store, result.record.ops);
  EXPECT_TRUE(combined.result.linearizable);

  std::set<std::int64_t> keys;
  for (const auto& op : result.record.ops) keys.insert(store.split(op.arg).key);
  EXPECT_GT(keys.size(), 100u);  // the workload actually spread over the keyspace

  std::size_t fast_path = 0;
  for (const std::int64_t key : keys) {
    const auto ops = restrict_to_key(result.record.ops, store, key);
    ASSERT_FALSE(ops.empty());
    for (const auto& op : ops) {
      EXPECT_TRUE(op.op_id.valid());  // ids survive the projection
    }
    const auto report = lin::check(reg, ops);
    EXPECT_TRUE(report.result.linearizable) << "key " << key;
    if (report.stats.route == lin::CheckRoute::kFastPath) ++fast_path;
  }
  // Each restriction is an unambiguous register history: all of them must
  // take the fast path.
  EXPECT_EQ(fast_path, keys.size());
}

}  // namespace
}  // namespace lintime::core
