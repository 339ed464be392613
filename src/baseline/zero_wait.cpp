#include "baseline/zero_wait.hpp"

#include <stdexcept>

namespace lintime::baseline {

ZeroWaitProcess::ZeroWaitProcess(const adt::DataType& type)
    : type_(type), state_(type.initial_state()) {}

void ZeroWaitProcess::on_invoke(sim::Context& ctx, adt::OpId id, const adt::Value& arg) {
  if (type_.spec(id).is_mutator()) {
    sim::Payload announce;
    announce.op_id = id;
    announce.val = sim::PayloadVal::from_value(arg);
    ctx.broadcast(std::move(announce));
  }
  ctx.respond(state_->apply(id, arg));
}

void ZeroWaitProcess::on_message(sim::Context& ctx, sim::ProcId /*src*/,
                                 const sim::Payload& payload) {
  (void)ctx;
  state_->apply(payload.op_id, payload.val.to_value());
}

void ZeroWaitProcess::on_timer(sim::Context&, sim::TimerId, const sim::Payload&) {
  throw std::logic_error("zero-wait baseline sets no timers");
}

}  // namespace lintime::baseline
