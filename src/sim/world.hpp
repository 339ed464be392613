#pragma once
// World: the deterministic discrete-event simulator tying together
// processes, the network (delay model), clocks (offsets) and the trace
// recorder.  One World = one run of the model of Section 2.2.  Events run
// from one sim::EventRing in ascending (time, tie rank, FIFO) order; the
// tie ranks encode the model's equal-time boundary rule (World::tie_rank_of).
//
// A run exercises one data type (WorldConfig::type, required), and
// operations enter only as that type's interned adt::OpId: names are
// resolved once at the edge (harness::execute, the shift constructions),
// never inside the event loop.  The World copies the name into the trace
// (OpRecord::op, StepRecord::op) once per invocation, at dispatch.

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "adt/op.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_ring.hpp"
#include "sim/fault.hpp"
#include "sim/model_params.hpp"
#include "sim/process.hpp"
#include "sim/run_record.hpp"
#include "sim/slot_map.hpp"

namespace lintime::adt {
class DataType;
}  // namespace lintime::adt

namespace lintime::sim {

/// How much of the run to record.  Step and message records dominate memory
/// at serving scale (a 10^6-op run generates ~10^7 steps); kOpsOnly keeps
/// only the operation records (what the checkers and latency metrics
/// consume) and leaves steps/messages empty.  The recorded ops are
/// byte-identical between the two levels.
enum class RecordDetail {
  kFull,     ///< steps + messages + ops (the default; shifting needs steps)
  kOpsOnly,  ///< ops only, for 10^5+-op serving runs
};

/// Simulator configuration.
struct WorldConfig {
  ModelParams params;
  std::vector<Time> clock_offsets;  ///< size n; empty = all zero

  /// Required: the data type this run exercises (it must outlive the
  /// World).  It issues the adt::OpIds invoke_at takes and names them in
  /// the trace; every OpRecord carries its id, so downstream metrics can
  /// aggregate on integers instead of strings.  Processes without
  /// sequential semantics use sim::NamedOps (named_ops.hpp).
  const adt::DataType* type = nullptr;

  /// EXTENSION (outside the paper's model, for the robustness bench): clock
  /// rates per process; local_time = rate * real + offset.  Empty = all 1
  /// (the paper's drift-free clocks).  Timer duration D set at local time L
  /// fires when the local clock reaches L + D, i.e. after D / rate real
  /// time.  The shifting machinery assumes rate 1 and must not be applied
  /// to drifting records.  Rates must be positive (validated).
  std::vector<Time> clock_rates;

  /// EXTENSION: fraction of messages silently dropped (violating the
  /// reliable-network assumption), selected deterministically per seed.
  /// Must lie within [0, 1] (validated).
  double drop_probability = 0;
  std::uint64_t drop_seed = 0;

  /// EXTENSION: deterministic fault schedule (timed crashes, timed link-drop
  /// windows; see sim/fault.hpp), layered under drop_probability: the drop
  /// coin for a message is always drawn first, so an empty schedule leaves
  /// the RNG stream -- and therefore the RunRecord -- byte-identical to a
  /// config without one.  Validated against n in the World constructor.
  FaultSchedule faults;
  std::shared_ptr<DelayModel> delays;  ///< nullptr = ConstantDelay(d)
  bool enforce_valid_delays = true;    ///< assert delays within [d-u, d]
  bool enforce_valid_skew = true;      ///< assert |c_i - c_j| <= eps

  RecordDetail record_detail = RecordDetail::kFull;

  /// ABLATION ONLY: process timer expirations before message receipts at
  /// equal times (the opposite of the model's boundary rule).  Algorithm 1's
  /// correctness argument (Lemma 5/6, "knows about op1 by t+d <= t'+d+eps")
  /// permits equality, which requires receipts to be handled first; flipping
  /// this breaks the algorithm at exact boundary ties -- demonstrated in
  /// tests/core/ablation_test.cpp and bench/ablations.
  bool timers_before_deliveries = false;
};

class World {
 public:
  using ProcessFactory = std::function<std::unique_ptr<Process>(ProcId)>;
  using ResponseHook = std::function<void(World&, const OpRecord&)>;

  /// Throws std::invalid_argument on an invalid config, including a null
  /// WorldConfig::type.
  World(WorldConfig config, const ProcessFactory& factory);

  /// Schedules an invocation of `op` (an id issued by WorldConfig::type)
  /// at `proc` at real time `when`.  Throws std::out_of_range on an invalid
  /// or foreign id and std::invalid_argument on a bad process or a time in
  /// the past.  The model allows at most one pending instance per process;
  /// the run loop checks that when the invocation executes.
  void invoke_at(Time when, ProcId proc, adt::OpId op, adt::Value arg);

  /// Registers a hook called on every operation response; the hook may call
  /// invoke_at (closed-loop workloads).
  void set_response_hook(ResponseHook hook) { response_hook_ = std::move(hook); }

  /// Runs until no events remain (Eventual Quiescence) or `max_events` is
  /// exceeded (throws -- indicates a runaway algorithm).
  void run(std::uint64_t max_events = 10'000'000);

  /// Current simulated real time.
  [[nodiscard]] Time now() const { return now_; }

  [[nodiscard]] const ModelParams& params() const { return config_.params; }
  [[nodiscard]] const std::vector<OpRecord>& ops() const { return record_.ops; }
  [[nodiscard]] const RunRecord& record() const { return record_; }

  /// Moves the record out of a finished world.  A million-op serving run's
  /// record owns ~3M heap blocks (op names, arguments, returns); callers
  /// that would otherwise copy-and-discard (harness::execute) take it
  /// instead.  The world must not dispatch again afterwards.
  [[nodiscard]] RunRecord take_record() { return std::move(record_); }

  /// Direct access to a process (for end-of-run state inspection, e.g. the
  /// History Oblivion checks in the shift experiments).
  [[nodiscard]] Process& process(ProcId p) { return *processes_[static_cast<std::size_t>(p)]; }

 private:
  // Event-ring entries carry only a dispatch key (sim/event_ring.hpp).
  // Payloads live in side arenas keyed by id -- one move in at schedule
  // time, one move out at dispatch -- so RingEvent stays a small
  // trivially-copyable struct that the per-bucket sort moves cheaply.
  struct PendingTimer {
    ProcId proc;
    Payload data;
  };

  struct PendingInvoke {
    adt::Value arg;
    adt::OpId op;
  };

  /// One stored payload per send OR broadcast; `remaining` deliveries
  /// reference the slot before it is reclaimed.  This is what makes
  /// Algorithm 1's broadcasts cheap -- n-1 ring entries fan out from one
  /// payload instead of n-1 deep copies of the announcement.  The payload
  /// itself is a typed inline record (sim/payload.hpp); the rare
  /// oversized argument is a refcounted box inside PayloadVal, so even then
  /// fan-out shares one heap object.
  struct SharedPayload {
    Payload payload;
    ProcId src = 0;
    std::uint32_t remaining = 0;
  };

  class ContextImpl;
  friend class ContextImpl;

  void dispatch(EventKind kind, ProcId proc, std::uint64_t id, std::uint64_t payload_slot);

  /// The dispatch body, instantiated once per RecordDetail level.  kFull
  /// carries a StepRecord through the handler and appends it to the trace;
  /// the slim instantiation passes a null step and touches no per-step or
  /// per-message bookkeeping at all -- at serving scale (10^6 ops, ~10^7
  /// steps) that bookkeeping was a measurable share of the hot loop.
  template <bool kFull>
  void dispatch_impl(EventKind kind, ProcId proc, std::uint64_t id, std::uint64_t payload_slot);
  /// Equal-time tie-break rank of an event kind (see the definition).
  [[nodiscard]] int tie_rank_of(EventKind kind) const;
  void push_ring(EventKind kind, Time when, ProcId proc, std::uint64_t id, std::uint64_t slot);

  /// True if `proc` has halted by real time `t` (crash times are snapped to
  /// the event grid; a crash at `when` already blocks events AT `when`).
  [[nodiscard]] bool crashed_by(ProcId proc, Time t) const {
    return has_crashes_ && t >= crash_at_[static_cast<std::size_t>(proc)];
  }
  /// True if a message sent now on src -> dst falls inside a drop window.
  [[nodiscard]] bool link_cut(ProcId src, ProcId dst) const;

  WorldConfig config_;
  bool record_full_ = true;  ///< config_.record_detail == kFull
  std::vector<std::unique_ptr<Process>> processes_;
  EventRing ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t next_invoke_id_ = 1;
  std::uint64_t next_payload_slot_ = 1;
  std::mt19937_64 drop_rng_{0};
  std::uint64_t next_op_uid_ = 1;
  Time now_ = 0;

  // Fault plane, precompiled from config_.faults: per-proc halt time (+inf
  // when the proc never crashes) and grid-snapped link windows.  The two
  // bools keep the empty-schedule dispatch/send paths to one predictable
  // branch each.
  std::vector<Time> crash_at_;
  std::vector<LinkWindow> link_windows_;
  bool has_crashes_ = false;
  bool has_link_windows_ = false;

  // Sequential ids consumed near-FIFO: SlotMap beats std::map's node
  // allocation + pointer chase on the dispatch hot path.
  SlotMap<PendingTimer> timers_;            ///< live timers
  SlotMap<SharedPayload> payloads_;         ///< undelivered message payloads
  SlotMap<PendingInvoke> pending_invokes_;  ///< scheduled invocations

  /// Pending invocation per process (index into record_.ops), or -1.
  std::vector<std::int64_t> pending_op_;

  RunRecord record_;
  ResponseHook response_hook_;
};

}  // namespace lintime::sim
