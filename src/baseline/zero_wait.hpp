#pragma once
// Zero-wait (UNSAFE) algorithm: every operation is applied to the local
// replica and responded to immediately; mutators are broadcast and applied
// at receivers on arrival, in arrival order.  This is the fastest possible
// implementation (|OP| = 0 for everything) and is of course NOT
// linearizable -- it exists so the lower-bound experiments and tests have a
// maximally broken comparator, and to show that the linearizability checker
// actually rejects histories (no vacuous passes).
//
// Wire format: one message kind, a sim::Payload carrying {op_id, arg}.

#include <memory>
#include <string>

#include "adt/data_type.hpp"
#include "sim/process.hpp"

namespace lintime::baseline {

class ZeroWaitProcess final : public sim::Process {
 public:
  explicit ZeroWaitProcess(const adt::DataType& type);

  void on_invoke(sim::Context& ctx, adt::OpId id, const adt::Value& arg) override;
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override;
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override;

 private:
  const adt::DataType& type_;
  std::unique_ptr<adt::ObjectState> state_;
};

}  // namespace lintime::baseline
