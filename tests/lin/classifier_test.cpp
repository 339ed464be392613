// Ambiguity-classifier coverage: for every shipped type (and the composite
// product) a must-fast-path history where the monitor preconditions hold
// and must-fallback histories for each way they can fail.

#include "lin/fast/classifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adt/counter_type.hpp"
#include "adt/deque_type.hpp"
#include "adt/max_register_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "core/composite.hpp"

namespace lintime::lin::fast {
namespace {

using adt::MonitorFamily;
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

// --- must-fast-path: one eligible history per monitor family ---------------

TEST(ClassifierTest, RegisterEligible) {
  adt::RegisterType reg;
  const std::vector<OpRecord> h = {
      op(0, "write", 1, Value::nil(), 0, 1),
      op(1, "read", Value::nil(), 1, 0.5, 2),
  };
  const auto c = classify(reg, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kRegister);
  EXPECT_TRUE(c.reason.empty());
}

TEST(ClassifierTest, RmwRegisterRestrictedToReadWriteEligible) {
  adt::RmwRegisterType rmw;
  const std::vector<OpRecord> h = {
      op(0, "write", 7, Value::nil(), 0, 1),
      op(1, "read", Value::nil(), 7, 2, 3),
  };
  const auto c = classify(rmw, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kRegister);
}

TEST(ClassifierTest, QueueEligible) {
  adt::QueueType q;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 2),
      op(1, "enqueue", 2, Value::nil(), 1, 3),
      op(0, "dequeue", Value::nil(), 1, 3, 5),
  };
  const auto c = classify(q, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kQueue);
}

TEST(ClassifierTest, StackEligible) {
  adt::StackType s;
  const std::vector<OpRecord> h = {
      op(0, "push", 1, Value::nil(), 0, 1),
      op(0, "pop", 1, Value{1}, 2, 3),
  };
  const auto c = classify(s, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kStack);
}

TEST(ClassifierTest, SetEligible) {
  adt::SetType s;
  const std::vector<OpRecord> h = {
      op(0, "add", 1, Value::nil(), 0, 1),
      op(1, "contains", 1, Value{1}, 2, 3),
      op(1, "contains", 2, Value{0}, 4, 5),
  };
  const auto c = classify(s, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kSet);
}

TEST(ClassifierTest, PQueueEligible) {
  adt::PriorityQueueType pq;
  const std::vector<OpRecord> h = {
      op(0, "insert", 3, Value::nil(), 0, 1),
      op(1, "extract_min", Value::nil(), 3, 2, 3),
  };
  const auto c = classify(pq, h);
  EXPECT_TRUE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kPriorityQueue);
}

// --- must-fallback: each precondition violation --------------------------

TEST(ClassifierTest, TypesWithoutFamilyFallBack) {
  adt::CounterType counter;
  adt::MaxRegisterType maxreg;
  adt::PoolType pool;
  adt::DequeType deque;
  adt::TreeType tree;
  for (const adt::DataType* t :
       {static_cast<const adt::DataType*>(&counter), static_cast<const adt::DataType*>(&maxreg),
        static_cast<const adt::DataType*>(&pool), static_cast<const adt::DataType*>(&deque),
        static_cast<const adt::DataType*>(&tree)}) {
    const auto c = classify(*t, {});
    EXPECT_FALSE(c.eligible) << t->name();
    EXPECT_EQ(c.family, MonitorFamily::kNone) << t->name();
    EXPECT_FALSE(c.reason.empty()) << t->name();
  }
}

TEST(ClassifierTest, CompositeProductFallsBack) {
  adt::QueueType q;
  adt::RegisterType reg;
  const core::ProductType product({&q, &reg});
  const auto c = classify(product, {});
  EXPECT_FALSE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kNone);
}

TEST(ClassifierTest, EmptyHistoryFallsBack) {
  adt::QueueType q;
  EXPECT_FALSE(classify(q, {}).eligible);
}

TEST(ClassifierTest, IncompleteRecordFallsBack) {
  adt::QueueType q;
  std::vector<OpRecord> h = {op(0, "enqueue", 1, Value::nil(), 0, 1)};
  h.push_back(op(0, "dequeue", Value::nil(), Value::nil(), 2, 3));
  h.back().response_real = -1;  // pending
  EXPECT_FALSE(classify(q, h).eligible);
}

TEST(ClassifierTest, UnsupportedOperationFallsBack) {
  adt::QueueType q;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(0, "peek", Value::nil(), 1, 2, 3),
  };
  const auto c = classify(q, h);
  EXPECT_FALSE(c.eligible);
  EXPECT_EQ(c.family, MonitorFamily::kQueue);  // family known, history not admitted
}

TEST(ClassifierTest, RmwOperationFallsBack) {
  adt::RmwRegisterType rmw;
  const std::vector<OpRecord> h = {
      op(0, "fetch_add", 1, Value{0}, 0, 1),
  };
  EXPECT_FALSE(classify(rmw, h).eligible);
}

TEST(ClassifierTest, ZeroGapWithinProcessFallsBack) {
  adt::QueueType q;
  // Same process, response time == next invoke time: the uid tiebreak case.
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(0, "enqueue", 2, Value::nil(), 1, 2),
  };
  EXPECT_FALSE(classify(q, h).eligible);
}

// --- the per-process order check, independent of record order -----------

constexpr const char* kGapReason = "zero-gap or overlapping intervals within one process";

/// Numbers the records' uids in their current order.
std::vector<OpRecord> with_uids(std::vector<OpRecord> h) {
  for (std::size_t i = 0; i < h.size(); ++i) h[i].uid = i + 1;
  return h;
}

TEST(ClassifierTest, RecordOrderDoesNotMatter) {
  adt::QueueType q;
  // Three processes, strictly gapped within each, interleaved across them.
  const auto eligible = with_uids({
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "enqueue", 2, Value::nil(), 0.5, 1.5),
      op(2, "dequeue", Value::nil(), 1, 2, 3),
      op(0, "enqueue", 3, Value::nil(), 1.25, 2),
      op(1, "dequeue", Value::nil(), 2, 1.75, 4),
      op(0, "dequeue", Value::nil(), 3, 2.5, 5),
  });
  // The same, but process 0's last two operations overlap.
  auto overlapping = eligible;
  overlapping[5].invoke_real = 1.5;

  std::vector<std::size_t> perm(eligible.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  int permutations = 0;
  do {
    std::vector<OpRecord> a;
    std::vector<OpRecord> b;
    for (const std::size_t i : perm) {
      a.push_back(eligible[i]);
      b.push_back(overlapping[i]);
    }
    const auto ca = classify(q, a);
    EXPECT_TRUE(ca.eligible);
    EXPECT_EQ(ca.reason, "");
    const auto cb = classify(q, b);
    EXPECT_FALSE(cb.eligible);
    EXPECT_EQ(cb.reason, kGapReason);
    ++permutations;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(permutations, 720);
}

TEST(ClassifierTest, EqualInvokeTimesOnOneProcessFallBack) {
  adt::QueueType q;
  // Two operations of process 0 start at the same instant; the uid decides
  // which comes first, and either way the second starts before the first
  // responds.  The zero-length one is complete (response == invoke).
  for (const bool zero_length_first : {true, false}) {
    std::vector<OpRecord> h = {
        op(0, "enqueue", 1, Value::nil(), 1, 1),
        op(0, "enqueue", 2, Value::nil(), 1, 3),
        op(1, "dequeue", Value::nil(), 1, 0, 4),
    };
    h[0].uid = zero_length_first ? 1 : 2;
    h[1].uid = zero_length_first ? 2 : 1;
    for (int rotation = 0; rotation < 3; ++rotation) {
      const auto c = classify(q, h);
      EXPECT_FALSE(c.eligible);
      EXPECT_EQ(c.reason, kGapReason);
      std::rotate(h.begin(), h.begin() + 1, h.end());
    }
  }
}

TEST(ClassifierTest, ZeroGapIsTheBoundary) {
  adt::QueueType q;
  // next.invoke == prev.response falls back; one ulp later is eligible.
  const auto touching = with_uids({
      op(0, "enqueue", 2, Value::nil(), 1, 2),
      op(0, "enqueue", 1, Value::nil(), 0, 1),
  });
  auto gapped = touching;
  gapped[0].invoke_real = std::nextafter(1.0, 2.0);
  const auto ct = classify(q, touching);
  EXPECT_FALSE(ct.eligible);
  EXPECT_EQ(ct.reason, kGapReason);
  const auto cg = classify(q, gapped);
  EXPECT_TRUE(cg.eligible);
  EXPECT_EQ(cg.reason, "");
}

TEST(ClassifierTest, DuplicateEnqueueFallsBack) {
  adt::QueueType q;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "enqueue", 1, Value::nil(), 0.5, 2),
  };
  EXPECT_FALSE(classify(q, h).eligible);
}

TEST(ClassifierTest, DuplicatePushFallsBack) {
  adt::StackType s;
  const std::vector<OpRecord> h = {
      op(0, "push", 1, Value::nil(), 0, 1),
      op(1, "push", 1, Value::nil(), 0.5, 2),
  };
  EXPECT_FALSE(classify(s, h).eligible);
}

TEST(ClassifierTest, DuplicateAddFallsBack) {
  adt::SetType s;
  const std::vector<OpRecord> h = {
      op(0, "add", 1, Value::nil(), 0, 1),
      op(1, "add", 1, Value::nil(), 2, 3),
  };
  EXPECT_FALSE(classify(s, h).eligible);
}

TEST(ClassifierTest, SetSizeOperationFallsBack) {
  adt::SetType s;
  const std::vector<OpRecord> h = {
      op(0, "add", 1, Value::nil(), 0, 1),
      op(0, "size", Value::nil(), Value{1}, 2, 3),
  };
  EXPECT_FALSE(classify(s, h).eligible);
}

TEST(ClassifierTest, DuplicateInsertFallsBack) {
  adt::PriorityQueueType pq;
  const std::vector<OpRecord> h = {
      op(0, "insert", 4, Value::nil(), 0, 1),
      op(1, "insert", 4, Value::nil(), 2, 3),
  };
  EXPECT_FALSE(classify(pq, h).eligible);
}

TEST(ClassifierTest, FindMinFallsBack) {
  adt::PriorityQueueType pq;
  const std::vector<OpRecord> h = {
      op(0, "insert", 4, Value::nil(), 0, 1),
      op(0, "find_min", Value::nil(), Value{4}, 2, 3),
  };
  EXPECT_FALSE(classify(pq, h).eligible);
}

TEST(ClassifierTest, DuplicateWriteFallsBack) {
  adt::RegisterType reg;
  const std::vector<OpRecord> h = {
      op(0, "write", 3, Value::nil(), 0, 1),
      op(1, "write", 3, Value::nil(), 2, 3),
  };
  EXPECT_FALSE(classify(reg, h).eligible);
}

TEST(ClassifierTest, WriteOfInitialValueFallsBack) {
  adt::RegisterType reg;  // initial value 0
  const std::vector<OpRecord> h = {
      op(0, "write", 0, Value::nil(), 0, 1),
  };
  EXPECT_FALSE(classify(reg, h).eligible);
}

}  // namespace
}  // namespace lintime::lin::fast
