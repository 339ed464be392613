#include "core/algorithm_one.hpp"

#include <stdexcept>

namespace lintime::core {

using adt::OpCategory;
using adt::Value;

namespace {

/// Flattens a Timestamp into the payload's scalar fields and back.  sim/
/// cannot depend on core/, so the wire record carries the raw triple.
sim::Payload pack(std::uint32_t tag, adt::OpId op_id, sim::PayloadVal arg,
                  const Timestamp& ts) {
  sim::Payload p;
  p.tag = tag;
  p.op_id = op_id;
  p.proc = ts.proc;
  p.seq = ts.seq;
  p.clock = ts.clock;
  p.val = std::move(arg);
  return p;
}

Timestamp ts_of(const sim::Payload& p) { return Timestamp{p.clock, p.proc, p.seq}; }

/// The single message kind this protocol sends (line 15's announcement).
constexpr std::uint32_t kAnnounceTag = 0;

}  // namespace

AlgorithmOneProcess::AlgorithmOneProcess(const adt::DataType& type, TimingPolicy timing)
    : type_(type), timing_(timing), state_(type.initial_state()) {}

void AlgorithmOneProcess::on_invoke(sim::Context& ctx, adt::OpId id, const Value& arg) {
  const OpCategory cat = type_.category(id);
  const sim::PayloadVal val = sim::PayloadVal::from_value(arg);

  if (cat == OpCategory::kPureAccessor) {
    // Line 2: respond d-X from now with timestamp back-dated by X.
    const Timestamp ts{ctx.local_time() - timing_.aop_backdate, ctx.self(), next_ts_seq_++};
    ctx.set_timer(timing_.aop_respond,
                  pack(static_cast<std::uint32_t>(TimerKind::kAopRespond), id, val, ts));
    return;
  }

  // Lines 10-15: a mutator (pure or mixed).
  const Timestamp ts{ctx.local_time(), ctx.self(), next_ts_seq_++};
  if (cat == OpCategory::kPureMutator) {
    // Line 12: pure mutators ACK after X+eps, independent of execution; the
    // ACK timer needs no payload beyond its kind.
    ctx.set_timer(timing_.mop_respond,
                  pack(static_cast<std::uint32_t>(TimerKind::kMopRespond), adt::OpId{},
                       sim::PayloadVal{}, ts));
  }
  // Line 14: the invoker pretends to receive its own announcement after the
  // minimum message delay d-u, like any other process.
  ctx.set_timer(timing_.add_delay,
                pack(static_cast<std::uint32_t>(TimerKind::kAdd), id, val, ts));
  // Line 15: announce to everyone else.
  ctx.broadcast(pack(kAnnounceTag, id, val, ts));
}

void AlgorithmOneProcess::on_message(sim::Context& ctx, sim::ProcId /*src*/,
                                     const sim::Payload& payload) {
  add_to_queue(ctx, payload.op_id, payload.val, ts_of(payload));
}

void AlgorithmOneProcess::on_timer(sim::Context& ctx, sim::TimerId /*id*/,
                                   const sim::Payload& data) {
  switch (static_cast<TimerKind>(data.tag)) {
    case TimerKind::kAopRespond: {
      // Lines 3-9: catch up on every mutator ordered before the accessor,
      // then execute the accessor locally and respond.
      const Timestamp ts = ts_of(data);
      drain_up_to(ctx, ts);
      ctx.respond(execute_locally(data.op_id, data.val, ts));
      break;
    }
    case TimerKind::kMopRespond:
      // Lines 16-17: pure mutators acknowledge without waiting to execute.
      ctx.respond(Value::nil());
      break;
    case TimerKind::kAdd:
      // Lines 18-20 (invoker side).
      add_to_queue(ctx, data.op_id, data.val, ts_of(data));
      break;
    case TimerKind::kExecute:
      // Lines 21-29; the execute timer carries only its timestamp.
      drain_up_to(ctx, ts_of(data));
      break;
  }
}

void AlgorithmOneProcess::add_to_queue(sim::Context& ctx, adt::OpId op_id,
                                       const sim::PayloadVal& arg, const Timestamp& ts) {
  const sim::TimerId execute_timer =
      ctx.set_timer(timing_.execute_delay,
                    pack(static_cast<std::uint32_t>(TimerKind::kExecute), adt::OpId{},
                         sim::PayloadVal{}, ts));
  // Announcements arrive in near-timestamp order (delays vary only within
  // [d-u, d]), so the scan from the back touches at most a couple of slots.
  auto it = to_execute_.end();
  while (it != to_execute_.begin() && ts < std::prev(it)->ts) --it;
  if (it != to_execute_.begin() && !(std::prev(it)->ts < ts)) {
    throw std::logic_error("AlgorithmOneProcess: duplicate timestamp in To_Execute");
  }
  to_execute_.insert(it, QueueEntry{ts, op_id, arg, execute_timer});
}

void AlgorithmOneProcess::drain_up_to(sim::Context& ctx, const Timestamp& ts) {
  // Execute the ready prefix in order, then erase it with one shift.  No
  // callee reenters this process (respond and cancel_timer only touch World
  // state), so the vector cannot change under the loop.
  std::size_t done = 0;
  while (done < to_execute_.size() && to_execute_[done].ts <= ts) {
    const QueueEntry& entry = to_execute_[done];
    ++done;
    ctx.cancel_timer(entry.execute_timer);

    const Value ret = execute_locally(entry.op_id, entry.arg, entry.ts);

    // Lines 26-28: if this was our own mixed operation, its execution is
    // its response.  (Our own pure mutators already ACKed at line 17.)
    if (entry.ts.proc == ctx.self() &&
        type_.category(entry.op_id) == OpCategory::kMixed) {
      ctx.respond(ret);
    }
  }
  if (done > 0) {
    to_execute_.erase(to_execute_.begin(),
                      to_execute_.begin() + static_cast<std::ptrdiff_t>(done));
  }
}

Value AlgorithmOneProcess::execute_locally(adt::OpId op_id, const sim::PayloadVal& arg,
                                           const Timestamp& ts) {
  arg.to_value_into(scratch_arg_);
  Value ret = state_->apply(op_id, scratch_arg_);
  if (log_executions_) {
    executed_.push_back(ExecutedOp{type_.spec(op_id).name, scratch_arg_, ret, ts});
  }
  return ret;
}

}  // namespace lintime::core
