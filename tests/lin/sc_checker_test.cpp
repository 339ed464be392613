// Tests for the sequential-consistency checker, including the canonical
// histories that separate SC from linearizability.

#include "lin/sc_checker.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "lin/check.hpp"

namespace lintime::lin {
namespace {

using adt::Value;
using sim::OpRecord;

OpRecord op(sim::ProcId proc, const std::string& name, Value arg, Value ret, double inv,
            double resp, std::uint64_t uid = 0) {
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

TEST(ScCheckerTest, EmptyHistory) {
  adt::RegisterType reg;
  EXPECT_TRUE(check_sequential_consistency(reg, std::vector<OpRecord>{}).linearizable);
}

TEST(ScCheckerTest, StaleRemoteReadIsScButNotLinearizable) {
  // The canonical separator: a write completes, a later read at another
  // process returns the old value.  Linearizability forbids it; sequential
  // consistency allows it (the read moves before the write).
  adt::RegisterType reg;
  const std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1, 1),
      op(1, "read", Value::nil(), 0, 2, 3, 2),
  };
  EXPECT_FALSE(check(reg, h).result.linearizable);
  EXPECT_TRUE(check_sequential_consistency(reg, h).linearizable);
}

TEST(ScCheckerTest, ProgramOrderStillEnforced) {
  // Same stale read at the SAME process: program order pins read after
  // write, so even sequential consistency rejects it.
  adt::RegisterType reg;
  const std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1, 1),
      op(0, "read", Value::nil(), 0, 2, 3, 2),
  };
  EXPECT_FALSE(check_sequential_consistency(reg, h).linearizable);
}

TEST(ScCheckerTest, CrossReadsOfIndependentWritesNotSc) {
  // The classic "IRIW-like" violation for registers via a queue: two
  // processes observe two enqueues in OPPOSITE orders -- no single total
  // order exists, so not sequentially consistent either.
  adt::QueueType queue;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1, 1),
      op(1, "enqueue", 2, Value::nil(), 0, 1, 2),
      // p2 dequeues 1 then 2; p3 dequeues... both claim the head.
      op(2, "peek", Value::nil(), 1, 5, 6, 3),
      op(3, "peek", Value::nil(), 2, 5, 6, 4),
  };
  EXPECT_FALSE(check_sequential_consistency(queue, h).linearizable);
}

TEST(ScCheckerTest, DoubleDequeueNotSc) {
  adt::QueueType queue;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1, 1),
      op(1, "dequeue", Value::nil(), 1, 2, 3, 2),
      op(2, "dequeue", Value::nil(), 1, 2, 3, 3),
  };
  EXPECT_FALSE(check_sequential_consistency(queue, h).linearizable);
}

TEST(ScCheckerTest, LinearizableImpliesSc) {
  adt::QueueType queue;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1, 1),
      op(1, "dequeue", Value::nil(), 1, 2, 3, 2),
      op(2, "peek", Value::nil(), Value::nil(), 4, 5, 3),
  };
  ASSERT_TRUE(check(queue, h).result.linearizable);
  EXPECT_TRUE(check_sequential_consistency(queue, h).linearizable);
}

TEST(ScCheckerTest, ProgramOrderTieBrokenByUid) {
  // Two same-process ops sharing an invocation boundary: uid decides order.
  adt::RegisterType reg;
  const std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1, 1),
      op(0, "read", Value::nil(), 5, 1, 2, 2),
  };
  EXPECT_TRUE(check_sequential_consistency(reg, h).linearizable);
  const std::vector<OpRecord> bad = {
      op(0, "write", 5, Value::nil(), 0, 1, 2),
      op(0, "read", Value::nil(), 0, 1, 2, 3),  // stale, after the write in PO
  };
  EXPECT_FALSE(check_sequential_consistency(reg, bad).linearizable);
}

}  // namespace
}  // namespace lintime::lin
