// Unit tests for the discrete-event kernel: event ordering, timers and
// cancellation, message delivery, clock offsets, trace recording, and the
// model's user constraint (one pending invocation per process).

#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "adt/register_type.hpp"
#include "sim/named_ops.hpp"

namespace lintime::sim {
namespace {

/// The operations Probe understands.
const NamedOps& probe_ops() {
  static const NamedOps ops{"ping", "timer", "timer_cancel", "broadcast", "silent", "never"};
  return ops;
}

adt::OpId op(const char* name) { return probe_ops().op_id(name); }

/// Scriptable probe process for kernel tests.  Payloads are typed records;
/// the probe's tag vocabulary below maps to the names its log strings use.
class Probe : public Process {
 public:
  struct Log {
    std::vector<std::string> events;
    std::vector<Time> local_times;
  };

  enum Tag : std::uint32_t { kHello, kAll, kTick, kCancelled };

  static const char* tag_name(std::uint32_t tag) {
    switch (tag) {
      case kHello: return "hello";
      case kAll: return "all";
      case kTick: return "tick";
      case kCancelled: return "cancelled";
      default: return "?";
    }
  }

  static Payload tagged(std::uint32_t tag) {
    Payload p;
    p.tag = tag;
    return p;
  }

  /// `type` must be the World's type; Probe reads each invoked op's name
  /// back from it.
  explicit Probe(Log& log, const adt::DataType& type = probe_ops()) : log_(log), type_(type) {}

  void on_invoke(Context& ctx, adt::OpId id, const adt::Value& arg) override {
    const std::string& op = type_.spec(id).name;
    log_.events.push_back("invoke:" + op);
    log_.local_times.push_back(ctx.local_time());
    if (op == "ping") {
      ctx.send((ctx.self() + 1) % ctx.n(), tagged(kHello));
      ctx.respond(adt::Value::nil());
    } else if (op == "timer") {
      timer_ = ctx.set_timer(arg.is_int() ? static_cast<Time>(arg.as_int()) : 1.0,
                             tagged(kTick));
      ctx.respond(adt::Value::nil());
    } else if (op == "timer_cancel") {
      auto id = ctx.set_timer(1.0, tagged(kCancelled));
      ctx.cancel_timer(id);
      ctx.respond(adt::Value::nil());
    } else if (op == "broadcast") {
      ctx.broadcast(tagged(kAll));
      ctx.respond(adt::Value::nil());
    } else if (op == "silent") {
      ctx.respond(adt::Value{ctx.self()});
    } else if (op == "never") {
      // No response: used to test the pending-invocation constraint.
    }
  }

  void on_message(Context& ctx, ProcId src, const Payload& payload) override {
    log_.events.push_back("msg:" + std::string(tag_name(payload.tag)) + ":from" +
                          std::to_string(src));
    log_.local_times.push_back(ctx.local_time());
  }

  void on_timer(Context& ctx, TimerId, const Payload& data) override {
    log_.events.push_back("timer:" + std::string(tag_name(data.tag)));
    log_.local_times.push_back(ctx.local_time());
  }

 private:
  Log& log_;
  const adt::DataType& type_;
  TimerId timer_;
};

WorldConfig config3() {
  WorldConfig c;
  c.params = ModelParams{3, 10.0, 2.0, 1.0};
  c.type = &probe_ops();
  return c;
}

TEST(WorldTest, MessageArrivesWithConstantDelay) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(10.0);
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(5.0, 0, op("ping"), adt::Value::nil());
  w.run();
  ASSERT_EQ(w.record().messages.size(), 1u);
  EXPECT_EQ(w.record().messages[0].send_real, 5.0);
  EXPECT_EQ(w.record().messages[0].recv_real, 15.0);
  EXPECT_TRUE(w.record().messages[0].received);
}

TEST(WorldTest, InvalidDelayRejectedWhenEnforced) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(3.0);  // below d-u = 8
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, op("ping"), adt::Value::nil());
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(WorldTest, InvalidDelayAllowedWhenNotEnforced) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(3.0);
  c.enforce_valid_delays = false;
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, op("ping"), adt::Value::nil());
  EXPECT_NO_THROW(w.run());
}

TEST(WorldTest, TimerFiresAtRequestedDelay) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(2.0, 0, op("timer"), adt::Value{7});
  w.run();
  ASSERT_EQ(log.events.back(), "timer:tick");
  // Timer set at local time 2 (offset 0) for +7.
  EXPECT_DOUBLE_EQ(log.local_times.back(), 9.0);
}

TEST(WorldTest, CancelledTimerNeverFires) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, op("timer_cancel"), adt::Value::nil());
  w.run();
  for (const auto& ev : log.events) {
    EXPECT_EQ(ev.find("cancelled"), std::string::npos) << ev;
  }
}

TEST(WorldTest, ClockOffsetsShiftLocalTime) {
  Probe::Log log;
  WorldConfig c = config3();
  c.clock_offsets = {0.5, -0.5, 0.0};
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(10.0, 0, op("silent"), adt::Value::nil());
  w.run();
  EXPECT_DOUBLE_EQ(log.local_times.back(), 10.5);
}

TEST(WorldTest, ExcessiveSkewRejected) {
  Probe::Log log;
  WorldConfig c = config3();  // eps = 1
  c.clock_offsets = {2.0, 0.0, 0.0};
  EXPECT_THROW(World(c, [&](ProcId) { return std::make_unique<Probe>(log); }),
               std::invalid_argument);
}

TEST(WorldTest, BroadcastReachesAllOthers) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 1, op("broadcast"), adt::Value::nil());
  w.run();
  int received = 0;
  for (const auto& ev : log.events) {
    if (ev.rfind("msg:all", 0) == 0) ++received;
  }
  EXPECT_EQ(received, 2);
  EXPECT_EQ(w.record().messages.size(), 2u);
}

TEST(WorldTest, SecondInvocationWhilePendingThrows) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, op("never"), adt::Value::nil());
  w.invoke_at(1.0, 0, op("silent"), adt::Value::nil());
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(WorldTest, OpRecordCapturesInterval) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(4.0, 2, op("silent"), adt::Value::nil());
  w.run();
  ASSERT_EQ(w.record().ops.size(), 1u);
  const auto& op = w.record().ops[0];
  EXPECT_EQ(op.proc, 2);
  EXPECT_EQ(op.invoke_real, 4.0);
  EXPECT_EQ(op.response_real, 4.0);
  EXPECT_EQ(op.ret, adt::Value{2});
  EXPECT_TRUE(op.complete());
}

TEST(WorldTest, StepsRecordedInRealTimeOrder) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(1.0, 0, op("ping"), adt::Value::nil());
  w.invoke_at(2.0, 1, op("timer"), adt::Value{1});
  w.run();
  const auto& steps = w.record().steps;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LE(steps[i - 1].real_time, steps[i].real_time);
  }
}

TEST(WorldTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Probe::Log log;
    WorldConfig c;
    c.params = ModelParams{4, 10.0, 2.0, 1.0};
    c.type = &probe_ops();
    c.delays = std::make_shared<UniformRandomDelay>(8.0, 10.0, 99);
    World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
    w.invoke_at(0.0, 0, op("broadcast"), adt::Value::nil());
    w.invoke_at(0.5, 1, op("broadcast"), adt::Value::nil());
    w.run();
    std::string sig;
    for (const auto& m : w.record().messages) sig += std::to_string(m.recv_real) + ";";
    return sig;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(WorldTest, InvokeInThePastThrows) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(5.0, 0, op("silent"), adt::Value::nil());
  w.run();
  EXPECT_THROW(w.invoke_at(1.0, 0, op("silent"), adt::Value::nil()), std::invalid_argument);
}

TEST(WorldTest, ResponseHookObservesCompletion) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  std::vector<std::string> seen;
  w.set_response_hook([&seen](World&, const OpRecord& op) { seen.push_back(op.op); });
  w.invoke_at(0.0, 0, op("silent"), adt::Value::nil());
  w.run();
  EXPECT_EQ(seen, std::vector<std::string>{"silent"});
}

TEST(WorldTest, ViewOfFiltersSteps) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, op("ping"), adt::Value::nil());
  w.run();
  const auto view0 = w.record().view_of(0);
  const auto view1 = w.record().view_of(1);
  EXPECT_EQ(view0.size(), 1u);  // the invoke step
  EXPECT_EQ(view1.size(), 1u);  // the message receipt
  EXPECT_EQ(view0[0].trigger, Trigger::kInvoke);
  EXPECT_EQ(view1[0].trigger, Trigger::kMessage);
}

TEST(WorldTest, DropProbabilityOutsideUnitIntervalThrows) {
  Probe::Log log;
  const auto factory = [&](ProcId) { return std::make_unique<Probe>(log); };
  for (const double p : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    WorldConfig c = config3();
    c.drop_probability = p;
    try {
      World w(c, factory);
      FAIL() << "drop_probability " << p << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("drop_probability must be in [0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorldTest, NonPositiveClockRateThrows) {
  Probe::Log log;
  const auto factory = [&](ProcId) { return std::make_unique<Probe>(log); };
  for (const double r : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    WorldConfig c = config3();
    c.clock_rates = {1.0, r, 1.0};
    try {
      World w(c, factory);
      FAIL() << "clock rate " << r << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("clock_rates[1] must be > 0"), std::string::npos)
          << e.what();
    }
  }
}

TEST(WorldTest, InvokeAtIdRequiresConfiguredType) {
  Probe::Log log;
  WorldConfig c = config3();
  c.type = nullptr;
  try {
    World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
    FAIL() << "a World without a data type was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("type"), std::string::npos) << e.what();
  }
}

TEST(WorldTest, InvokeAtIdRecordsNameAndId) {
  adt::RegisterType reg;
  WorldConfig c = config3();
  c.type = &reg;
  Probe::Log log;
  // "write" hits Probe's no-op branch; only the recorded name/id matter.
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log, reg); });
  w.invoke_at(1.0, 0, reg.op_id(adt::RegisterType::kWrite), adt::Value{7});
  w.run();
  ASSERT_EQ(w.record().ops.size(), 1u);
  EXPECT_EQ(w.record().ops[0].op, "write");
  EXPECT_TRUE(w.record().ops[0].op_id.valid());
  EXPECT_EQ(log.events, std::vector<std::string>{"invoke:write"});
}

TEST(WorldTest, InvokeAtForeignIdThrows) {
  adt::RegisterType reg;
  WorldConfig c = config3();
  c.type = &reg;
  Probe::Log log;
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log, reg); });
  EXPECT_THROW(w.invoke_at(1.0, 0, adt::OpId{}, adt::Value::nil()), std::out_of_range);
  // An id past the end of the type's table is foreign too.
  EXPECT_THROW(w.invoke_at(1.0, 0, adt::OpId{static_cast<std::uint32_t>(reg.ops().size())},
                           adt::Value::nil()),
               std::out_of_range);
}

}  // namespace
}  // namespace lintime::sim
