#pragma once
// Run records: the executable counterpart of the paper's "runs" (sets of
// timed views, Section 2.2).  The simulator records every step, message and
// operation instance; the shifting machinery (src/shift) transforms these
// records exactly as Theorem 1 and Lemma 2 transform runs.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adt/op.hpp"
#include "adt/value.hpp"
#include "sim/model_params.hpp"

namespace lintime::sim {

/// What triggered a step (the three event kinds of the model).
enum class Trigger {
  kInvoke,   ///< an operation invocation arrived from the user
  kMessage,  ///< receipt of a message
  kTimer,    ///< a previously-set timer went off
};

[[nodiscard]] constexpr const char* to_string(Trigger t) {
  switch (t) {
    case Trigger::kInvoke: return "invoke";
    case Trigger::kMessage: return "message";
    case Trigger::kTimer: return "timer";
  }
  return "?";
}

/// One step of one process's timed view.
struct StepRecord {
  ProcId proc = 0;
  Time real_time = 0;
  Time clock_time = 0;
  Trigger trigger = Trigger::kInvoke;

  // Trigger detail:
  std::uint64_t message_id = 0;  ///< for kMessage
  std::uint64_t timer_id = 0;    ///< for kTimer
  std::string op;                ///< for kInvoke
  adt::Value arg;                ///< for kInvoke

  std::vector<std::uint64_t> sent_message_ids;  ///< messages sent in this step
  bool responded = false;                       ///< did this step emit a response
  adt::Value response;                          ///< the response, if responded
};

/// One message: send/receive endpoints in real time.
struct MessageRecord {
  std::uint64_t id = 0;
  ProcId src = 0;
  ProcId dst = 0;
  Time send_real = 0;
  Time recv_real = 0;
  bool received = false;

  [[nodiscard]] Time delay() const { return recv_real - send_real; }
};

/// One completed operation instance with its real-time interval -- the unit
/// the linearizability checker consumes.
struct OpRecord {
  ProcId proc = 0;
  std::string op;
  adt::Value arg;
  adt::Value ret;
  Time invoke_real = 0;
  Time response_real = -1;  ///< -1 until the response is emitted
  std::uint64_t uid = 0;    ///< unique per run, stable across shifting

  /// Interned id of `op` against the run's data type.  Always valid in
  /// records the World produces (every invocation enters as an id); invalid
  /// only in records loaded from traces (trace_io does not serialize it) or
  /// projected from a composite history (core::restrict_to_object rewrites
  /// the names).  `op` remains authoritative -- the checkers re-resolve
  /// names themselves.
  adt::OpId op_id;

  [[nodiscard]] bool complete() const { return response_real >= invoke_real; }
  [[nodiscard]] Time latency() const { return response_real - invoke_real; }

  [[nodiscard]] std::string to_string() const;
};

/// Groups the latency of every complete record by operation name, in record
/// order: `fold(acc, latency)` folds each latency into its name's `Acc`.
/// Records carrying an interned id reach their accumulator through a dense
/// id index (one name lookup per operation, not per record); records
/// without one (e.g. loaded from traces) by name.  Callers keep their own
/// reduction: a running mean, a percentile sample.
template <class Acc, class Fold>
[[nodiscard]] std::map<std::string, Acc> fold_latencies_by_op(const std::vector<OpRecord>& ops,
                                                              Fold fold) {
  std::map<std::string, Acc> out;
  std::vector<Acc*> by_id;
  for (const auto& op : ops) {
    if (!op.complete()) continue;
    Acc* acc = nullptr;
    if (op.op_id.valid()) {
      const auto idx = static_cast<std::size_t>(op.op_id.index());
      if (idx >= by_id.size()) by_id.resize(idx + 1, nullptr);
      if (by_id[idx] == nullptr) by_id[idx] = &out[op.op];
      acc = by_id[idx];
    } else {
      acc = &out[op.op];
    }
    fold(*acc, op.latency());
  }
  return out;
}

/// A complete recorded run.
struct RunRecord {
  ModelParams params;
  std::vector<Time> clock_offsets;  ///< c_i per process
  std::vector<StepRecord> steps;    ///< in global real-time order as executed
  std::vector<MessageRecord> messages;
  std::vector<OpRecord> ops;

  /// last-time of the run: max real time over all steps (0 if empty).
  [[nodiscard]] Time last_time() const;
  /// first-time: min real time over all steps (0 if empty).
  [[nodiscard]] Time first_time() const;

  /// The steps of one process, in order (a timed view).
  [[nodiscard]] std::vector<StepRecord> view_of(ProcId p) const;
};

}  // namespace lintime::sim
