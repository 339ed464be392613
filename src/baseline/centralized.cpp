#include "baseline/centralized.hpp"

#include <stdexcept>

namespace lintime::baseline {

using adt::Value;

CentralizedProcess::CentralizedProcess(const adt::DataType& type, sim::ProcId self)
    : type_(type), self_(self) {
  if (self_ == kCoordinator) state_ = type_.initial_state();
}

void CentralizedProcess::on_invoke(sim::Context& ctx, adt::OpId id, const Value& arg) {
  if (self_ == kCoordinator) {
    // Local invocation: apply directly; the coordinator's copy is the truth.
    ctx.respond(state_->apply(id, arg));
    return;
  }
  sim::Payload request;
  request.op_id = id;
  request.seq = next_request_id_++;
  request.val = sim::PayloadVal::from_value(arg);
  ctx.send(kCoordinator, std::move(request));
}

void CentralizedProcess::on_message(sim::Context& ctx, sim::ProcId src,
                                    const sim::Payload& payload) {
  if (self_ == kCoordinator) {
    sim::Payload reply;
    reply.seq = payload.seq;  // echo the request id
    reply.val = sim::PayloadVal::from_value(state_->apply(payload.op_id, payload.val.to_value()));
    ctx.send(src, std::move(reply));
    return;
  }
  ctx.respond(payload.val.to_value());
}

void CentralizedProcess::on_timer(sim::Context&, sim::TimerId, const sim::Payload&) {
  throw std::logic_error("centralized baseline sets no timers");
}

std::string CentralizedProcess::state_canonical() const {
  return state_ ? state_->canonical() : std::string("(replica-less)");
}

}  // namespace lintime::baseline
