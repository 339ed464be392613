#pragma once
// Fast sequentially consistent baseline (the weaker condition discussed in
// the paper's introduction and related work; cf. Attiya-Welch's gap between
// sequential consistency and linearizability).
//
// Replication is timestamp-ordered exactly as in Algorithm 1, but responses
// exploit the weaker condition:
//   * pure mutators respond IMMEDIATELY (latency 0) -- ordering continues in
//     the background;
//   * pure accessors respond immediately from the local replica, unless an
//     own mutator is still unapplied locally, in which case the response
//     waits for it (read-your-writes, preserving program order);
//   * mixed operations respond when they execute locally (as in Algorithm 1),
//     since their return value needs the agreed position.
//
// Runs of this implementation are sequentially consistent but NOT
// linearizable in general (remote readers see stale state for up to d+u+eps
// after a write responds) -- demonstrating concretely why linearizability
// costs what Theorems 2-5 say it must.
//
// Wire/timer format mirrors Algorithm 1's: typed sim::Payloads carrying
// {tag, op_id, arg, flattened timestamp}.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/timestamp.hpp"
#include "core/timing_policy.hpp"
#include "sim/process.hpp"

namespace lintime::baseline {

class SeqConsistentProcess final : public sim::Process {
 public:
  SeqConsistentProcess(const adt::DataType& type, const sim::ModelParams& params);

  void on_invoke(sim::Context& ctx, adt::OpId id, const adt::Value& arg) override;
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override;
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override;

  [[nodiscard]] std::string state_canonical() const { return state_->canonical(); }

 private:
  enum class TimerKind : std::uint32_t { kAdd, kExecute };

  struct QueueEntry {
    adt::OpId op_id;
    sim::PayloadVal arg;
    sim::TimerId execute_timer;
  };

  /// A pure accessor waiting for an own mutator to apply locally.
  struct DeferredAccessor {
    adt::OpId op_id;
    adt::Value arg;
    core::Timestamp waits_for;  ///< own mutator timestamp it must observe
  };

  void add_to_queue(sim::Context& ctx, adt::OpId op_id, const sim::PayloadVal& arg,
                    const core::Timestamp& ts);
  void drain_up_to(sim::Context& ctx, const core::Timestamp& ts);
  adt::Value execute_locally(adt::OpId op_id, const adt::Value& arg);

  const adt::DataType& type_;
  sim::Time add_delay_;      ///< d - u
  sim::Time execute_delay_;  ///< u + eps
  std::unique_ptr<adt::ObjectState> state_;
  std::map<core::Timestamp, QueueEntry> to_execute_;
  std::optional<core::Timestamp> last_own_mutator_;  ///< not yet applied locally
  std::optional<DeferredAccessor> deferred_;
  std::uint64_t next_ts_seq_ = 0;  ///< keeps own timestamps unique
};

}  // namespace lintime::baseline
