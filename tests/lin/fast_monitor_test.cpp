// Hand-crafted histories through the lin::check() facade: each case pins
// the fast-path verdict AND cross-validates it against the general
// Wing-Gong checker (allow_fast_path = false) on the same history.

#include "lin/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/state_base.hpp"
#include "lin/fast/registry.hpp"

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

/// Runs both routes and asserts the fast path was taken and both agree.
bool both_routes(const adt::DataType& type, const std::vector<OpRecord>& h) {
  const auto fast = check(type, h);
  EXPECT_EQ(fast.stats.route, CheckRoute::kFastPath) << fast.stats.fallback_reason;
  FacadeOptions general_only;
  general_only.allow_fast_path = false;
  const auto general = check(type, h, general_only);
  EXPECT_EQ(general.stats.route, CheckRoute::kGeneral);
  EXPECT_EQ(fast.result.linearizable, general.result.linearizable)
      << "fast path and general checker disagree";
  return fast.result.linearizable;
}

// --- register --------------------------------------------------------------

TEST(FastMonitorTest, RegisterConcurrentReadDuringWrite) {
  adt::RegisterType reg;
  EXPECT_TRUE(both_routes(reg, {
                                   op(0, "write", 1, Value::nil(), 0, 2),
                                   op(1, "read", Value::nil(), 1, 0.5, 1.5),
                                   op(2, "read", Value::nil(), 0, 0.6, 1.6),
                               }));
}

TEST(FastMonitorTest, RegisterStaleReadAfterWrite) {
  adt::RegisterType reg;
  // read -> 0 strictly after the write of 1 completed: the initial cluster
  // would have to follow the write's cluster.
  EXPECT_FALSE(both_routes(reg, {
                                    op(0, "write", 1, Value::nil(), 0, 1),
                                    op(1, "read", Value::nil(), 0, 2, 3),
                                }));
}

TEST(FastMonitorTest, RegisterTwoWriteCycle) {
  adt::RegisterType reg;
  // Reads force write(1) < write(2) and write(2) < write(1) simultaneously.
  EXPECT_FALSE(both_routes(reg, {
                                    op(0, "write", 1, Value::nil(), 0, 1),
                                    op(1, "write", 2, Value::nil(), 0.2, 1.2),
                                    op(2, "read", Value::nil(), 1, 2, 3),
                                    op(3, "read", Value::nil(), 2, 4, 5),
                                    op(2, "read", Value::nil(), 1, 6, 7),
                                }));
}

TEST(FastMonitorTest, RegisterReadBeforeOwnWrite) {
  adt::RegisterType reg;
  EXPECT_FALSE(both_routes(reg, {
                                    op(0, "read", Value::nil(), 5, 0, 1),
                                    op(1, "write", 5, Value::nil(), 2, 3),
                                }));
}

// --- queue -----------------------------------------------------------------

TEST(FastMonitorTest, QueueFifoRespected) {
  adt::QueueType q;
  EXPECT_TRUE(both_routes(q, {
                                 op(0, "enqueue", 1, Value::nil(), 0, 2),
                                 op(1, "enqueue", 2, Value::nil(), 1, 3),
                                 op(0, "dequeue", Value::nil(), 1, 3, 5),
                                 op(1, "dequeue", Value::nil(), 2, 4, 6),
                             }));
}

TEST(FastMonitorTest, QueueForcedFifoInversion) {
  adt::QueueType q;
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "enqueue", 1, Value::nil(), 0, 1),
                                  op(0, "enqueue", 2, Value::nil(), 2, 3),
                                  op(1, "dequeue", Value::nil(), 2, 4, 5),
                                  op(1, "dequeue", Value::nil(), 1, 6, 7),
                              }));
}

TEST(FastMonitorTest, QueueDequeueBeforeEnqueue) {
  adt::QueueType q;
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "dequeue", Value::nil(), 1, 0, 1),
                                  op(1, "enqueue", 1, Value::nil(), 2, 3),
                              }));
}

TEST(FastMonitorTest, QueueStuckValueViolation) {
  adt::QueueType q;
  // 1 is enqueued and never dequeued, fully before enqueue(2); dequeuing 2
  // would have to skip over 1.
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "enqueue", 1, Value::nil(), 0, 1),
                                  op(0, "enqueue", 2, Value::nil(), 2, 3),
                                  op(1, "dequeue", Value::nil(), 2, 4, 5),
                              }));
}

TEST(FastMonitorTest, QueueEmptyDequeueLegalBetweenValues) {
  adt::QueueType q;
  EXPECT_TRUE(both_routes(q, {
                                 op(0, "enqueue", 1, Value::nil(), 0, 1),
                                 op(0, "dequeue", Value::nil(), 1, 2, 3),
                                 op(1, "dequeue", Value::nil(), Value::nil(), 4, 5),
                                 op(0, "enqueue", 2, Value::nil(), 6, 7),
                                 op(1, "dequeue", Value::nil(), 2, 8, 9),
                             }));
}

TEST(FastMonitorTest, QueueEmptyDequeueInsideCertainPresence) {
  adt::QueueType q;
  // 1 is certainly present on [1, 6] and the empty dequeue sits inside.
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "enqueue", 1, Value::nil(), 0, 1),
                                  op(1, "dequeue", Value::nil(), Value::nil(), 2, 3),
                                  op(0, "dequeue", Value::nil(), 1, 6, 7),
                              }));
}

TEST(FastMonitorTest, QueueEmptyDequeueAtTouchingBoundaryIsLegal) {
  adt::QueueType q;
  // Presence windows (1, 4) and (4, 8) touch at exactly 4: the order
  // deq(1) . empty . enq(2) is still consistent (neither boundary pair is
  // strictly ordered), so the empty dequeue is legal and the union must not
  // have merged the windows.
  EXPECT_TRUE(both_routes(q, {
                                 op(0, "enqueue", 1, Value::nil(), 0, 1),
                                 op(0, "dequeue", Value::nil(), 1, 4, 5),
                                 op(2, "dequeue", Value::nil(), Value::nil(), 3.9, 4.1),
                                 op(1, "enqueue", 2, Value::nil(), 3.6, 4),
                                 op(1, "dequeue", Value::nil(), 2, 8, 9),
                             }));
}

// --- stack -----------------------------------------------------------------

TEST(FastMonitorTest, StackLifoRespected) {
  adt::StackType s;
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "push", 1, Value::nil(), 0, 1),
                                 op(0, "push", 2, Value::nil(), 2, 3),
                                 op(1, "pop", Value::nil(), 2, 4, 5),
                                 op(1, "pop", Value::nil(), 1, 6, 7),
                             }));
}

TEST(FastMonitorTest, StackForcedLifoInversion) {
  adt::StackType s;
  // push(1) < push(2) < pop(1) < pop(2): 2 certainly sits above 1.
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "push", 1, Value::nil(), 0, 1),
                                  op(0, "push", 2, Value::nil(), 2, 3),
                                  op(1, "pop", Value::nil(), 1, 4, 5),
                                  op(1, "pop", Value::nil(), 2, 6, 7),
                              }));
}

TEST(FastMonitorTest, StackUnpoppedBlocker) {
  adt::StackType s;
  // Same, but 2 is never popped: still a forced inversion.
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "push", 1, Value::nil(), 0, 1),
                                  op(0, "push", 2, Value::nil(), 2, 3),
                                  op(1, "pop", Value::nil(), 1, 4, 5),
                              }));
}

TEST(FastMonitorTest, StackOverlappingPushesEitherOrder) {
  adt::StackType s;
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "push", 1, Value::nil(), 0, 2),
                                 op(1, "push", 2, Value::nil(), 1, 3),
                                 op(0, "pop", Value::nil(), 1, 4, 5),
                                 op(1, "pop", Value::nil(), 2, 6, 7),
                             }));
}

TEST(FastMonitorTest, StackEmptyPopInsideCertainPresence) {
  adt::StackType s;
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "push", 1, Value::nil(), 0, 1),
                                  op(1, "pop", Value::nil(), Value::nil(), 2, 3),
                                  op(0, "pop", Value::nil(), 1, 6, 7),
                              }));
}

// --- set -------------------------------------------------------------------

TEST(FastMonitorTest, SetAddThenContains) {
  adt::SetType s;
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "add", 1, Value::nil(), 0, 1),
                                 op(1, "contains", 1, Value{1}, 2, 3),
                                 op(1, "contains", 2, Value{0}, 4, 5),
                             }));
}

TEST(FastMonitorTest, SetContainsTrueBeforeAdd) {
  adt::SetType s;
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "contains", 1, Value{1}, 0, 1),
                                  op(1, "add", 1, Value::nil(), 2, 3),
                              }));
}

TEST(FastMonitorTest, SetContainsFalseAfterAdd) {
  adt::SetType s;
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "add", 1, Value::nil(), 0, 1),
                                  op(1, "contains", 1, Value{0}, 2, 3),
                              }));
}

TEST(FastMonitorTest, SetContainsTrueWithoutAdd) {
  adt::SetType s;
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "contains", 9, Value{1}, 0, 1),
                              }));
}

TEST(FastMonitorTest, SetConcurrentReadsBracketTheAdd) {
  adt::SetType s;
  // Both observations overlap the add: either can linearize on its side.
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "add", 1, Value::nil(), 1, 4),
                                 op(1, "contains", 1, Value{0}, 0, 2),
                                 op(2, "contains", 1, Value{1}, 3, 5),
                             }));
}

// --- priority queue --------------------------------------------------------

TEST(FastMonitorTest, PQueueExtractsInValueOrder) {
  adt::PriorityQueueType pq;
  EXPECT_TRUE(both_routes(pq, {
                                  op(0, "insert", 2, Value::nil(), 0, 1),
                                  op(0, "insert", 1, Value::nil(), 2, 3),
                                  op(1, "extract_min", Value::nil(), 1, 4, 5),
                                  op(1, "extract_min", Value::nil(), 2, 6, 7),
                              }));
}

TEST(FastMonitorTest, PQueueExtractCoveredBySmallerValue) {
  adt::PriorityQueueType pq;
  // 1 is certainly present for the whole extract_min -> 2 interval.
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "insert", 1, Value::nil(), 0, 1),
                                   op(0, "insert", 2, Value::nil(), 2, 3),
                                   op(1, "extract_min", Value::nil(), 2, 4, 5),
                                   op(1, "extract_min", Value::nil(), 1, 6, 7),
                               }));
}

TEST(FastMonitorTest, PQueueConcurrentSmallerValueAllowsEitherOrder) {
  adt::PriorityQueueType pq;
  // insert(1) overlaps the extract -> 2: extraction may linearize first.
  EXPECT_TRUE(both_routes(pq, {
                                  op(0, "insert", 2, Value::nil(), 0, 1),
                                  op(1, "insert", 1, Value::nil(), 2, 5),
                                  op(2, "extract_min", Value::nil(), 2, 3, 4),
                                  op(2, "extract_min", Value::nil(), 1, 6, 7),
                              }));
}

TEST(FastMonitorTest, PQueueEmptyExtractInsideCertainPresence) {
  adt::PriorityQueueType pq;
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "insert", 1, Value::nil(), 0, 1),
                                   op(1, "extract_min", Value::nil(), Value::nil(), 2, 3),
                                   op(0, "extract_min", Value::nil(), 1, 6, 7),
                               }));
}

TEST(FastMonitorTest, PQueueExtractBeforeInsert) {
  adt::PriorityQueueType pq;
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "extract_min", Value::nil(), 1, 0, 1),
                                   op(1, "insert", 1, Value::nil(), 2, 3),
                               }));
}

// --- returns no sequential run produces ------------------------------------

TEST(FastMonitorTest, ImpossibleReturnsAreNotLinearizable) {
  adt::QueueType q;
  adt::RegisterType reg;
  adt::SetType set;
  adt::PriorityQueueType pq;
  EXPECT_FALSE(both_routes(q, {op(0, "enqueue", 1, Value{1}, 0, 1)}));
  EXPECT_FALSE(both_routes(reg, {op(0, "write", 1, Value{0}, 0, 1)}));
  EXPECT_FALSE(both_routes(pq, {op(0, "insert", 1, Value{"ok"}, 0, 1)}));
  EXPECT_FALSE(both_routes(set, {op(0, "contains", 1, Value{2}, 0, 1)}));
  EXPECT_FALSE(both_routes(set, {op(0, "contains", 1, Value::nil(), 0, 1)}));
}

// --- facade routing --------------------------------------------------------

TEST(FastMonitorTest, RequireWitnessForcesGeneralRoute) {
  adt::QueueType q;
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "dequeue", Value::nil(), 1, 2, 3),
  };
  FacadeOptions options;
  options.require_witness = true;
  const auto report = check(q, h, options);
  EXPECT_EQ(report.stats.route, CheckRoute::kGeneral);
  EXPECT_TRUE(report.result.linearizable);
  EXPECT_EQ(report.result.witness.size(), h.size());
}

TEST(FastMonitorTest, AmbiguousHistoryRoutesToGeneral) {
  adt::QueueType q;
  // Duplicate enqueued value: outside the monitor's precondition.
  const std::vector<OpRecord> h = {
      op(0, "enqueue", 1, Value::nil(), 0, 1),
      op(1, "enqueue", 1, Value::nil(), 2, 3),
      op(0, "dequeue", Value::nil(), 1, 4, 5),
      op(1, "dequeue", Value::nil(), 1, 6, 7),
  };
  const auto report = check(q, h);
  EXPECT_EQ(report.stats.route, CheckRoute::kGeneral);
  EXPECT_FALSE(report.stats.fallback_reason.empty());
  EXPECT_TRUE(report.result.linearizable);
}


// --- non-int values ----------------------------------------------------------
//
// The shipped types keep int state, but the classifier ranks every
// adt::Value kind and the monitors see only ranks.  AnyValueType gives one
// family its reference semantics over arbitrary adt::Values (priority order
// is adt::Value's operator<: nil < int < string < vector), so both routes
// can check string- and vector-valued histories.

class AnyValueState final : public adt::StateBase<AnyValueState> {
 public:
  AnyValueState(adt::MonitorFamily family, std::string mutator, Value initial)
      : family_(family), mutator_(std::move(mutator)) {
    if (family_ == adt::MonitorFamily::kRegister) items_.push_back(std::move(initial));
  }

  Value apply(const std::string& op, const Value& arg) override {
    const bool mutator = op == mutator_;
    switch (family_) {
      case adt::MonitorFamily::kRegister:
        if (!mutator) return items_.front();
        items_.front() = arg;
        return Value::nil();
      case adt::MonitorFamily::kQueue:
      case adt::MonitorFamily::kStack:
      case adt::MonitorFamily::kPriorityQueue: {
        if (mutator) {
          // A priority queue keeps its items sorted, smallest first.
          const auto at = family_ == adt::MonitorFamily::kPriorityQueue
                              ? std::upper_bound(items_.begin(), items_.end(), arg)
                              : items_.end();
          items_.insert(at, arg);
          return Value::nil();
        }
        if (items_.empty()) return Value::nil();
        const auto it = family_ == adt::MonitorFamily::kStack ? items_.end() - 1 : items_.begin();
        Value v = *it;
        items_.erase(it);
        return v;
      }
      case adt::MonitorFamily::kSet: {
        const bool present = std::find(items_.begin(), items_.end(), arg) != items_.end();
        if (!mutator) return Value{present ? 1 : 0};
        if (!present) items_.push_back(arg);
        return Value::nil();
      }
      case adt::MonitorFamily::kNone:
        break;
    }
    throw std::logic_error("AnyValueState: no family");
  }

  [[nodiscard]] std::string canonical() const override {
    std::string out;
    for (const auto& v : items_) out += v.to_string() + ",";
    return out;
  }

 private:
  adt::MonitorFamily family_;
  std::string mutator_;
  std::vector<Value> items_;
};

class AnyValueType final : public adt::DataType {
 public:
  explicit AnyValueType(adt::MonitorFamily family, Value initial = Value{0})
      : family_(family), initial_(std::move(initial)) {
    const auto* entry = fast::MonitorRegistry::instance().find(family);
    ops_ = {{entry->mutator, adt::OpCategory::kPureMutator, true},
            {entry->accessor, adt::OpCategory::kMixed, family == adt::MonitorFamily::kSet}};
  }

  [[nodiscard]] std::string name() const override {
    return std::string("any-value-") + adt::to_string(family_);
  }
  [[nodiscard]] const std::vector<adt::OpSpec>& ops() const override { return ops_; }
  [[nodiscard]] std::unique_ptr<adt::ObjectState> make_initial_state() const override {
    return std::make_unique<AnyValueState>(family_, ops_.front().name, initial_);
  }
  [[nodiscard]] adt::MonitorFamily monitor_family() const override { return family_; }

 private:
  adt::MonitorFamily family_;
  Value initial_;
  std::vector<adt::OpSpec> ops_;
};

Value vec(std::initializer_list<Value> items) { return Value{adt::ValueVec(items)}; }

TEST(FastMonitorTest, StringRegister) {
  const AnyValueType reg(adt::MonitorFamily::kRegister, Value{"init"});
  EXPECT_TRUE(both_routes(reg, {
                                   op(0, "write", "a", Value::nil(), 0, 2),
                                   op(1, "read", Value::nil(), "init", 0.5, 1.5),
                                   op(2, "read", Value::nil(), "a", 1, 3),
                                   op(0, "write", "b", Value::nil(), 4, 5),
                                   op(1, "read", Value::nil(), "b", 6, 7),
                               }));
  // "a" read after "b" was written and read: the a-block must both precede
  // and follow the b-block.
  EXPECT_FALSE(both_routes(reg, {
                                    op(0, "write", "a", Value::nil(), 0, 1),
                                    op(0, "write", "b", Value::nil(), 2, 3),
                                    op(1, "read", Value::nil(), "b", 4, 5),
                                    op(1, "read", Value::nil(), "a", 6, 7),
                                }));
}

TEST(FastMonitorTest, VectorRegisterStaleInitialRead) {
  const AnyValueType reg(adt::MonitorFamily::kRegister, vec({0, 0}));
  EXPECT_FALSE(both_routes(reg, {
                                    op(0, "write", vec({1, 2}), Value::nil(), 0, 1),
                                    op(1, "read", Value::nil(), vec({0, 0}), 2, 3),
                                }));
  EXPECT_TRUE(both_routes(reg, {
                                   op(0, "write", vec({1, 2}), Value::nil(), 0, 1),
                                   op(1, "read", Value::nil(), vec({1, 2}), 2, 3),
                                   op(0, "write", vec({1}), Value::nil(), 4, 5),
                                   op(1, "read", Value::nil(), vec({1}), 6, 7),
                               }));
}

TEST(FastMonitorTest, StringQueue) {
  const AnyValueType q(adt::MonitorFamily::kQueue);
  EXPECT_TRUE(both_routes(q, {
                                 op(0, "enqueue", "b", Value::nil(), 0, 1),
                                 op(0, "enqueue", "a", Value::nil(), 2, 3),
                                 op(1, "dequeue", Value::nil(), "b", 4, 5),
                                 op(1, "dequeue", Value::nil(), "a", 6, 7),
                                 op(1, "dequeue", Value::nil(), Value::nil(), 8, 9),
                             }));
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "enqueue", "b", Value::nil(), 0, 1),
                                  op(0, "enqueue", "a", Value::nil(), 2, 3),
                                  op(1, "dequeue", Value::nil(), "a", 4, 5),
                                  op(1, "dequeue", Value::nil(), "b", 6, 7),
                              }));
}

TEST(FastMonitorTest, VectorQueueEmptyDequeueInsidePresence) {
  const AnyValueType q(adt::MonitorFamily::kQueue);
  EXPECT_FALSE(both_routes(q, {
                                  op(0, "enqueue", vec({1, 2}), Value::nil(), 0, 1),
                                  op(1, "dequeue", Value::nil(), Value::nil(), 2, 3),
                                  op(1, "dequeue", Value::nil(), vec({1, 2}), 4, 5),
                              }));
}

TEST(FastMonitorTest, StringStack) {
  const AnyValueType s(adt::MonitorFamily::kStack);
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "push", "x", Value::nil(), 0, 1),
                                 op(0, "push", "y", Value::nil(), 2, 3),
                                 op(1, "pop", Value::nil(), "y", 4, 5),
                                 op(1, "pop", Value::nil(), "x", 6, 7),
                             }));
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "push", "x", Value::nil(), 0, 1),
                                  op(0, "push", "y", Value::nil(), 2, 3),
                                  op(1, "pop", Value::nil(), "x", 4, 5),
                                  op(1, "pop", Value::nil(), "y", 6, 7),
                              }));
}

TEST(FastMonitorTest, VectorStack) {
  const AnyValueType s(adt::MonitorFamily::kStack);
  EXPECT_TRUE(both_routes(s, {
                                 op(0, "push", vec({2}), Value::nil(), 0, 1),
                                 op(1, "push", vec({1, 5}), Value::nil(), 0.5, 1.5),
                                 op(0, "pop", Value::nil(), vec({2}), 2, 3),
                                 op(1, "pop", Value::nil(), vec({1, 5}), 4, 5),
                             }));
  EXPECT_FALSE(both_routes(s, {
                                  op(0, "push", vec({2}), Value::nil(), 0, 1),
                                  op(0, "push", vec({1, 5}), Value::nil(), 2, 3),
                                  op(1, "pop", Value::nil(), vec({2}), 4, 5),
                              }));
}

TEST(FastMonitorTest, StringAndVectorSet) {
  const AnyValueType set(adt::MonitorFamily::kSet);
  EXPECT_TRUE(both_routes(set, {
                                   op(0, "add", "x", Value::nil(), 0, 1),
                                   op(1, "contains", "x", Value{1}, 2, 3),
                                   op(1, "contains", "y", Value{0}, 4, 5),
                                   op(0, "add", vec({3}), Value::nil(), 6, 7),
                                   op(1, "contains", vec({3}), Value{1}, 8, 9),
                               }));
  EXPECT_FALSE(both_routes(set, {
                                    op(0, "add", "x", Value::nil(), 0, 1),
                                    op(1, "contains", "x", Value{0}, 2, 3),
                                }));
  EXPECT_FALSE(both_routes(set, {
                                    op(1, "contains", vec({3}), Value{1}, 0, 1),
                                    op(0, "add", vec({3}), Value::nil(), 2, 3),
                                }));
}

TEST(FastMonitorTest, StringPQueue) {
  const AnyValueType pq(adt::MonitorFamily::kPriorityQueue);
  EXPECT_TRUE(both_routes(pq, {
                                  op(0, "insert", "b", Value::nil(), 0, 1),
                                  op(0, "insert", "a", Value::nil(), 2, 3),
                                  op(1, "extract_min", Value::nil(), "a", 4, 5),
                                  op(1, "extract_min", Value::nil(), "b", 6, 7),
                              }));
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "insert", "b", Value::nil(), 0, 1),
                                   op(0, "insert", "a", Value::nil(), 2, 3),
                                   op(1, "extract_min", Value::nil(), "b", 4, 5),
                               }));
}

TEST(FastMonitorTest, VectorPQueue) {
  const AnyValueType pq(adt::MonitorFamily::kPriorityQueue);
  // [1, 9] < [2]: vectors compare lexicographically.
  EXPECT_TRUE(both_routes(pq, {
                                  op(0, "insert", vec({2}), Value::nil(), 0, 1),
                                  op(0, "insert", vec({1, 9}), Value::nil(), 2, 3),
                                  op(1, "extract_min", Value::nil(), vec({1, 9}), 4, 5),
                                  op(1, "extract_min", Value::nil(), vec({2}), 6, 7),
                              }));
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "insert", vec({2}), Value::nil(), 0, 1),
                                   op(0, "insert", vec({1, 9}), Value::nil(), 2, 3),
                                   op(1, "extract_min", Value::nil(), vec({2}), 4, 5),
                               }));
}

TEST(FastMonitorTest, MixedPQueueRanksIntsBelowStrings) {
  const AnyValueType pq(adt::MonitorFamily::kPriorityQueue);
  // 5 < "a" in adt::Value order, so extracting "a" while 5 is certainly
  // present is illegal; it would be legal if strings ranked first.
  EXPECT_FALSE(both_routes(pq, {
                                   op(0, "insert", "a", Value::nil(), 0, 1),
                                   op(0, "insert", 5, Value::nil(), 2, 3),
                                   op(1, "extract_min", Value::nil(), "a", 4, 5),
                               }));
  EXPECT_TRUE(both_routes(pq, {
                                  op(0, "insert", "a", Value::nil(), 0, 1),
                                  op(0, "insert", 5, Value::nil(), 2, 3),
                                  op(1, "extract_min", Value::nil(), 5, 4, 5),
                                  op(1, "extract_min", Value::nil(), "a", 6, 7),
                              }));
}

TEST(FastMonitorTest, EqualNonIntValuesAreDuplicates) {
  // Equal strings and equal vectors rank equal, so two mutators carrying
  // them are duplicates; values that differ only in kind are not.
  const AnyValueType q(adt::MonitorFamily::kQueue);
  const std::vector<OpRecord> strings = {
      op(0, "enqueue", "a", Value::nil(), 0, 1),
      op(1, "enqueue", "a", Value::nil(), 0, 1),
  };
  const auto by_strings = check(q, strings);
  EXPECT_EQ(by_strings.stats.route, CheckRoute::kGeneral);
  EXPECT_EQ(by_strings.stats.fallback_reason, "duplicate enqueued value");
  const std::vector<OpRecord> vectors = {
      op(0, "enqueue", vec({1, 2}), Value::nil(), 0, 1),
      op(1, "enqueue", vec({1, 2}), Value::nil(), 0, 1),
  };
  EXPECT_EQ(check(q, vectors).stats.fallback_reason, "duplicate enqueued value");
  EXPECT_TRUE(both_routes(q, {
                                 op(0, "enqueue", 1, Value::nil(), 0, 1),
                                 op(1, "enqueue", "1", Value::nil(), 0, 1),
                                 op(2, "enqueue", vec({1}), Value::nil(), 0, 1),
                             }));
}

}  // namespace
}  // namespace lintime::lin
