// Unit tests for the linearizability checker on hand-crafted histories.

#include "lin/check.hpp"

#include <gtest/gtest.h>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"

namespace lintime::lin {
namespace {

using adt::Value;
using sim::OpRecord;

OpRecord op(sim::ProcId proc, const std::string& name, Value arg, Value ret, double inv,
            double resp) {
  OpRecord r;
  r.proc = proc;
  r.op = name;
  r.arg = std::move(arg);
  r.ret = std::move(ret);
  r.invoke_real = inv;
  r.response_real = resp;
  return r;
}

TEST(CheckerTest, EmptyHistoryIsLinearizable) {
  adt::RegisterType reg;
  EXPECT_TRUE(check(reg, std::vector<OpRecord>{}).result.linearizable);
}

TEST(CheckerTest, SequentialLegalHistory) {
  adt::RegisterType reg;
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1),
      op(1, "read", Value::nil(), 5, 2, 3),
  };
  EXPECT_TRUE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, SequentialIllegalHistory) {
  adt::RegisterType reg;
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1),
      op(1, "read", Value::nil(), 7, 2, 3),  // wrong value
  };
  EXPECT_FALSE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, StaleReadAfterCompletedWriteIsIllegal) {
  adt::RegisterType reg;
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 1),
      op(1, "read", Value::nil(), 0, 2, 3),  // must have seen the write
  };
  EXPECT_FALSE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, StaleReadConcurrentWithWriteIsLegal) {
  adt::RegisterType reg;
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 10),
      op(1, "read", Value::nil(), 0, 2, 3),  // overlaps the write: may precede it
  };
  EXPECT_TRUE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, ConcurrentReadsMayDisagreeOnlyInRealTimeOrder) {
  adt::RegisterType reg;
  // read(5) at [2,3] and read(0) at [4,6]: the later read cannot return the
  // older value once a read already returned the new one after the write
  // completed.
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 10),
      op(1, "read", Value::nil(), 5, 2, 3),
      op(2, "read", Value::nil(), 0, 4, 6),
  };
  EXPECT_FALSE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, NewOldInversionAllowedWhileWritePending) {
  adt::RegisterType reg;
  // Opposite order: old value first, new value second -- fine.
  std::vector<OpRecord> h = {
      op(0, "write", 5, Value::nil(), 0, 10),
      op(1, "read", Value::nil(), 0, 2, 3),
      op(2, "read", Value::nil(), 5, 4, 6),
  };
  EXPECT_TRUE(check(reg, h).result.linearizable);
}

TEST(CheckerTest, DoubleDequeueOfSameElementIllegal) {
  adt::QueueType queue;
  std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "dequeue", Value::nil(), 1, 2, 3),
      op(2, "dequeue", Value::nil(), 1, 2.5, 3.5),
  };
  EXPECT_FALSE(check(queue, h).result.linearizable);
}

TEST(CheckerTest, ConcurrentDequeuesOfDistinctElementsLegal) {
  adt::QueueType queue;
  std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(0, "enqueue", 2, Value::nil(), 1.5, 2),
      op(1, "dequeue", Value::nil(), 2, 3, 4),
      op(2, "dequeue", Value::nil(), 1, 3, 4),
  };
  EXPECT_TRUE(check(queue, h).result.linearizable);
}

TEST(CheckerTest, WitnessIsALegalLinearization) {
  adt::QueueType queue;
  std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 5),
      op(1, "enqueue", 2, Value::nil(), 0, 5),
      op(2, "dequeue", Value::nil(), 2, 6, 7),
  };
  const auto result = check(queue, h, {.allow_fast_path = false}).result;
  ASSERT_TRUE(result.linearizable);
  ASSERT_EQ(result.witness.size(), 3u);
  // The witness must start with enqueue(2) for dequeue to return 2.
  EXPECT_EQ(h[result.witness[0]].arg, Value{2});
  // And it must be a permutation.
  std::vector<bool> seen(3, false);
  for (auto idx : result.witness) seen[idx] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(CheckerTest, RealTimeOrderRespectedAcrossProcesses) {
  adt::QueueType queue;
  // enqueue(1) completes before enqueue(2) starts; dequeue must return 1.
  std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "enqueue", 2, Value::nil(), 2, 3),
      op(2, "dequeue", Value::nil(), 2, 4, 5),
  };
  EXPECT_FALSE(check(queue, h).result.linearizable);
}

TEST(CheckerTest, IncompleteRecordThrows) {
  adt::RegisterType reg;
  OpRecord pending = op(0, "read", Value::nil(), Value::nil(), 5, 6);
  pending.response_real = -1;
  EXPECT_THROW((void)check(reg, std::vector<OpRecord>{pending}), std::invalid_argument);
}

TEST(CheckerTest, MemoizationHandlesManyConcurrentCommutingOps) {
  // 12 fully concurrent enqueues of only two distinct values: factorially
  // many interleavings, but the memo table keeps the search polynomial-ish.
  adt::QueueType queue;
  std::vector<OpRecord> h;
  for (int i = 0; i < 12; ++i) {
    h.push_back(op(i % 3, "enqueue", i % 2, Value::nil(), 0, 100));
  }
  const auto result = check(queue, h, {.allow_fast_path = false}).result;
  EXPECT_TRUE(result.linearizable);
  EXPECT_LT(result.nodes_expanded, 100000u);
}

TEST(CheckerTest, WitnessToStringRendersSequence) {
  adt::RegisterType reg;
  std::vector<OpRecord> h = {op(0, "write", 5, Value::nil(), 0, 1)};
  const auto result = check(reg, h, {.allow_fast_path = false}).result;
  ASSERT_TRUE(result.linearizable);
  EXPECT_NE(result.witness_to_string(h).find("write"), std::string::npos);
}

}  // namespace
}  // namespace lintime::lin
