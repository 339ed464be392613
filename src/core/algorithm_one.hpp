#pragma once
// Algorithm 1 of the paper (Section 5.1): the timestamp-based linearizable
// implementation of an arbitrary data type, with per-class response times
//   pure accessors (AOP):  d - X
//   pure mutators (MOP):   X + eps
//   mixed ops     (OOP):   d + eps
// where X in [0, d-eps] trades accessor speed against mutator speed.
//
// Each process keeps a local replica of the object plus the To_Execute
// priority queue of announced-but-not-yet-executed mutators, ordered by
// timestamp.  Mutators are broadcast on invocation, enter the queue d-u
// after invocation (simulated locally at the invoker, via real messages at
// everyone else), and execute u+eps after entering -- by which time no
// mutator with a smaller timestamp can still be unknown.  Pure accessors are
// never broadcast: they execute locally d-X after invocation with a
// timestamp back-dated by X (line 2), which is exactly late enough to have
// received every mutator that responded before the accessor was invoked.
//
// Wire/timer format: everything travels as a typed sim::Payload.  The tag
// grammar (kAnnounceTag for the one message kind, TimerKind for timers) and
// the Timestamp <-> {clock, proc, seq} flattening live in algorithm_one.cpp;
// the argument rides as a PayloadVal, so integer and [key, int] arguments
// never touch the heap between invoker and replicas.

#include <memory>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/timestamp.hpp"
#include "core/timing_policy.hpp"
#include "sim/process.hpp"

namespace lintime::core {

/// One locally executed operation, for invariant checks and debugging.
struct ExecutedOp {
  std::string op;
  adt::Value arg;
  adt::Value ret;
  Timestamp ts;
};

class AlgorithmOneProcess final : public sim::Process {
 public:
  /// `type` must outlive the process.  `timing` is normally
  /// TimingPolicy::standard(params, X); the lower-bound experiments pass
  /// shortened timers.
  AlgorithmOneProcess(const adt::DataType& type, TimingPolicy timing);

  void on_invoke(sim::Context& ctx, adt::OpId id, const adt::Value& arg) override;
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override;
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override;

  /// The mutators (and local accessors) executed on this replica, in
  /// execution order.  Lemma 5's invariant -- mutators execute in increasing
  /// timestamp order -- is checked in tests against this log.
  [[nodiscard]] const std::vector<ExecutedOp>& executed() const { return executed_; }

  /// Canonical encoding of the replica state (History Oblivion checks).
  [[nodiscard]] std::string state_canonical() const { return state_->canonical(); }

  /// Toggles the executed() log (default on).  Serving-scale runs (10^5+
  /// ops) disable it: the log grows with every execution on every replica
  /// and nothing in those runs reads it.
  void set_execution_logging(bool on) { log_executions_ = on; }

 private:
  enum class TimerKind : std::uint32_t { kAopRespond, kMopRespond, kAdd, kExecute };

  struct QueueEntry {
    Timestamp ts;
    adt::OpId op_id;
    sim::PayloadVal arg;
    sim::TimerId execute_timer;
  };

  /// Lines 18-20: enter the mutator into To_Execute and start its settle
  /// timer.
  void add_to_queue(sim::Context& ctx, adt::OpId op_id, const sim::PayloadVal& arg,
                    const Timestamp& ts);

  /// Lines 4-8 / 22-29: execute every queued mutator with timestamp <= ts,
  /// in timestamp order, responding if one of them is our own kMixed.
  void drain_up_to(sim::Context& ctx, const Timestamp& ts);

  /// Line 30-33: apply (op_id, arg) to the local replica.  The op name is
  /// resolved from the type only when the execution log is on; nothing on
  /// the serving hot path touches a string.
  adt::Value execute_locally(adt::OpId op_id, const sim::PayloadVal& arg, const Timestamp& ts);

  const adt::DataType& type_;
  TimingPolicy timing_;
  std::unique_ptr<adt::ObjectState> state_;
  /// Sorted ascending by timestamp.  The queue holds only the mutators
  /// inside one settle window (u + eps), so it stays a handful of entries;
  /// a flat vector with near-back insertion beats std::map's node
  /// allocation per announcement by a wide margin at serving scale.
  std::vector<QueueEntry> to_execute_;
  std::vector<ExecutedOp> executed_;
  adt::Value scratch_arg_;  ///< reused across executions (see execute_locally)
  std::uint64_t next_ts_seq_ = 0;  ///< keeps own timestamps unique
  bool log_executions_ = true;
};

}  // namespace lintime::core
