#include "baseline/seq_consistent.hpp"

#include <stdexcept>

namespace lintime::baseline {

using adt::OpCategory;
using adt::Value;
using core::Timestamp;

namespace {

/// Same flattening as Algorithm 1's (one message kind -- the announcement --
/// plus the two timer kinds, disjoint channels so tags may overlap).
sim::Payload pack(std::uint32_t tag, adt::OpId op_id, sim::PayloadVal arg, const Timestamp& ts) {
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

constexpr std::uint32_t kAnnounceTag = 0;

}  // namespace

SeqConsistentProcess::SeqConsistentProcess(const adt::DataType& type,
                                           const sim::ModelParams& params)
    : type_(type),
      add_delay_(params.d - params.u),
      execute_delay_(params.u + params.eps),
      state_(type.initial_state()) {}

void SeqConsistentProcess::on_invoke(sim::Context& ctx, adt::OpId id, const Value& arg) {
  const OpCategory cat = type_.category(id);

  if (cat == OpCategory::kPureAccessor) {
    if (last_own_mutator_.has_value()) {
      // Read-your-writes: wait until our most recent mutator has been
      // applied locally, then answer from the replica.
      deferred_ = DeferredAccessor{id, arg, *last_own_mutator_};
      return;
    }
    ctx.respond(execute_locally(id, arg));
    return;
  }

  const Timestamp ts{ctx.local_time(), ctx.self(), next_ts_seq_++};
  const sim::PayloadVal val = sim::PayloadVal::from_value(arg);
  ctx.set_timer(add_delay_, pack(static_cast<std::uint32_t>(TimerKind::kAdd), id, val, ts));
  ctx.broadcast(pack(kAnnounceTag, id, val, ts));
  last_own_mutator_ = ts;

  if (cat == OpCategory::kPureMutator) {
    // Sequential consistency allows acknowledging instantly.
    ctx.respond(Value::nil());
  }
  // Mixed operations respond at local execution (see drain_up_to).
}

void SeqConsistentProcess::on_message(sim::Context& ctx, sim::ProcId /*src*/,
                                      const sim::Payload& payload) {
  add_to_queue(ctx, payload.op_id, payload.val, ts_of(payload));
}

void SeqConsistentProcess::on_timer(sim::Context& ctx, sim::TimerId /*id*/,
                                    const sim::Payload& data) {
  switch (static_cast<TimerKind>(data.tag)) {
    case TimerKind::kAdd:
      add_to_queue(ctx, data.op_id, data.val, ts_of(data));
      break;
    case TimerKind::kExecute:
      drain_up_to(ctx, ts_of(data));
      break;
  }
}

void SeqConsistentProcess::add_to_queue(sim::Context& ctx, adt::OpId op_id,
                                        const sim::PayloadVal& arg, const Timestamp& ts) {
  const sim::TimerId execute_timer =
      ctx.set_timer(execute_delay_, pack(static_cast<std::uint32_t>(TimerKind::kExecute),
                                         adt::OpId{}, sim::PayloadVal{}, ts));
  const auto [it, inserted] = to_execute_.emplace(ts, QueueEntry{op_id, arg, execute_timer});
  (void)it;
  if (!inserted) {
    throw std::logic_error("SeqConsistentProcess: duplicate timestamp in To_Execute");
  }
}

void SeqConsistentProcess::drain_up_to(sim::Context& ctx, const Timestamp& ts) {
  while (!to_execute_.empty() && to_execute_.begin()->first <= ts) {
    const auto it = to_execute_.begin();
    const Timestamp entry_ts = it->first;
    QueueEntry entry = std::move(it->second);
    to_execute_.erase(it);
    ctx.cancel_timer(entry.execute_timer);

    const Value ret = execute_locally(entry.op_id, entry.arg.to_value());

    if (entry_ts.proc == ctx.self()) {
      if (type_.category(entry.op_id) == OpCategory::kMixed) {
        ctx.respond(ret);
      }
      if (last_own_mutator_ == entry_ts) last_own_mutator_.reset();
      if (deferred_ && deferred_->waits_for <= entry_ts) {
        DeferredAccessor aop = *deferred_;
        deferred_.reset();
        ctx.respond(execute_locally(aop.op_id, aop.arg));
      }
    }
  }
}

adt::Value SeqConsistentProcess::execute_locally(adt::OpId op_id, const Value& arg) {
  return state_->apply(op_id, arg);
}

}  // namespace lintime::baseline
