#pragma once
// The folklore centralized algorithm (Section 1): every invocation is
// forwarded to a distinguished coordinator process (p0), which applies it to
// the single authoritative copy and sends the result back.  Linearization
// order = application order at the coordinator.  Worst-case time per
// operation: 2d (one request message + one reply message); operations
// invoked at the coordinator itself complete immediately.
//
// This is the baseline Algorithm 1 is measured against in every table bench.
//
// Wire format: requests and replies are sim::Payloads -- a request carries
// {op_id, arg, request-id in seq}; a reply carries {return value, the same
// request-id}.  Role dispatch is positional (self == kCoordinator), so no
// message tag is needed.

#include <cstdint>
#include <memory>
#include <string>

#include "adt/data_type.hpp"
#include "sim/process.hpp"

namespace lintime::baseline {

class CentralizedProcess final : public sim::Process {
 public:
  static constexpr sim::ProcId kCoordinator = 0;

  explicit CentralizedProcess(const adt::DataType& type, sim::ProcId self);

  void on_invoke(sim::Context& ctx, adt::OpId id, const adt::Value& arg) override;
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override;
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override;

  [[nodiscard]] std::string state_canonical() const;

 private:
  const adt::DataType& type_;
  sim::ProcId self_;
  std::unique_ptr<adt::ObjectState> state_;  ///< only used by the coordinator
  std::uint64_t next_request_id_ = 1;
};

}  // namespace lintime::baseline
