// Tests for the non-deterministic linearizability checker (the Section 6.2
// relaxation): histories only explainable by a non-minimal take are accepted
// against the spec while the deterministic resolution rejects them, and
// genuinely impossible histories are still rejected.

#include "lin/nondet_checker.hpp"

#include <gtest/gtest.h>

#include "adt/pool_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

namespace lintime::lin {
namespace {

using adt::Value;
using sim::OpRecord;

OpRecord op(sim::ProcId proc, const std::string& name, Value arg, Value ret, double inv,
            double resp, std::uint64_t uid) {
  OpRecord r;
  r.proc = proc;
  r.op = name;
  r.arg = std::move(arg);
  r.ret = std::move(ret);
  r.invoke_real = inv;
  r.response_real = resp;
  r.uid = uid;
  return r;
}

TEST(NondetCheckerTest, EmptyHistory) {
  adt::PoolNondetSpec spec;
  EXPECT_TRUE(check_linearizability_nondet(spec, std::vector<OpRecord>{}).linearizable);
}

TEST(NondetCheckerTest, MinimalTakeAccepted) {
  adt::PoolNondetSpec spec;
  const std::vector<OpRecord> h = {
      op(0, "put", 1, Value::nil(), 0, 1, 1),
      op(0, "put", 2, Value::nil(), 2, 3, 2),
      op(1, "take", Value::nil(), 1, 4, 5, 3),
  };
  EXPECT_TRUE(check_linearizability_nondet(spec, h).linearizable);
}

TEST(NondetCheckerTest, NonMinimalTakeAcceptedBySpecOnly) {
  // take returns 2 while 1 is present: impossible under the min-take
  // deterministic resolution, fine under the spec.
  adt::PoolNondetSpec spec;
  adt::PoolType det;
  const std::vector<OpRecord> h = {
      op(0, "put", 1, Value::nil(), 0, 1, 1),
      op(0, "put", 2, Value::nil(), 2, 3, 2),
      op(1, "take", Value::nil(), 2, 4, 5, 3),
      op(2, "take", Value::nil(), 1, 6, 7, 4),
  };
  EXPECT_TRUE(check_linearizability_nondet(spec, h).linearizable);
  EXPECT_FALSE(check(det, h).result.linearizable);
}

TEST(NondetCheckerTest, TakeOfAbsentElementRejected) {
  adt::PoolNondetSpec spec;
  const std::vector<OpRecord> h = {
      op(0, "put", 1, Value::nil(), 0, 1, 1),
      op(1, "take", Value::nil(), 9, 2, 3, 2),
  };
  EXPECT_FALSE(check_linearizability_nondet(spec, h).linearizable);
}

TEST(NondetCheckerTest, DoubleTakeOfSingleElementRejected) {
  adt::PoolNondetSpec spec;
  const std::vector<OpRecord> h = {
      op(0, "put", 1, Value::nil(), 0, 1, 1),
      op(1, "take", Value::nil(), 1, 2, 3, 2),
      op(2, "take", Value::nil(), 1, 2.5, 3.5, 3),
  };
  EXPECT_FALSE(check_linearizability_nondet(spec, h).linearizable);
}

TEST(NondetCheckerTest, RealTimeOrderStillEnforced) {
  // take completes before put begins: nothing to take yet.
  adt::PoolNondetSpec spec;
  const std::vector<OpRecord> h = {
      op(1, "take", Value::nil(), 1, 0, 1, 1),
      op(0, "put", 1, Value::nil(), 2, 3, 2),
  };
  EXPECT_FALSE(check_linearizability_nondet(spec, h).linearizable);
}

TEST(NondetCheckerTest, StaleSizeAfterPutRejected) {
  adt::PoolNondetSpec spec;
  const std::vector<OpRecord> h = {
      op(0, "put", 1, Value::nil(), 0, 1, 1),
      op(1, "size", Value::nil(), 0, 2, 3, 2),
  };
  EXPECT_FALSE(check_linearizability_nondet(spec, h).linearizable);
}

TEST(NondetCheckerTest, AlgorithmOnePoolRunsSatisfySpec) {
  // End-to-end: Algorithm 1 on the deterministic resolution; runs satisfy
  // the relaxed spec (and the deterministic one).
  adt::PoolType det;
  adt::PoolNondetSpec spec;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    harness::RunSpec run;
    run.params = sim::ModelParams{4, 10.0, 2.0, 1.5};
    run.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, seed);
    run.scripts = harness::random_scripts(det, 4, 4, seed * 13);
    const auto result = harness::execute(det, run);
    EXPECT_TRUE(check(det, result.record).result.linearizable) << seed;
    EXPECT_TRUE(check_linearizability_nondet(spec, result.record).linearizable) << seed;
  }
}

TEST(NondetCheckerTest, BranchingCountedInNodes) {
  // Many concurrent takes from a pool with many elements: the search
  // branches over outcomes but memoization keeps it tractable.
  adt::PoolNondetSpec spec;
  std::vector<OpRecord> h;
  std::uint64_t uid = 1;
  for (int v = 1; v <= 6; ++v) {
    h.push_back(op(0, "put", v, Value::nil(), v, v + 0.5, uid++));
  }
  for (int v = 1; v <= 6; ++v) {
    h.push_back(op(1 + v % 3, "take", Value::nil(), 7 - v, 10, 20, uid++));
  }
  const auto result = check_linearizability_nondet(spec, h);
  EXPECT_TRUE(result.linearizable);
  EXPECT_LT(result.nodes_expanded, 100000u);
}

}  // namespace
}  // namespace lintime::lin
