// Ablation tests for the design decisions DESIGN.md calls out: each shows
// that removing one mechanism breaks Algorithm 1 on a concrete admissible
// schedule (while the intact algorithm handles the same schedule), so the
// mechanism is load-bearing, not incidental.

#include <gtest/gtest.h>

#include <memory>

#include "adt/queue_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "lin/check.hpp"
#include "sim/world.hpp"

namespace lintime::core {
namespace {

using adt::Value;

// ---------------------------------------------------------------------------
// Ablation 1: deliveries must be processed before timers at equal times.
//
// Schedule (dyadic constants so the boundary tie is exact): eps = 1.5,
// offsets (-eps, 0, 0); dequeue at p1 at t = 50, dequeue at p0 at t + eps.
// Both timestamps are (50, .) -- p0's is smaller by process id -- and p0's
// announcement reaches p1 at 51.5 + 10 = 61.5, the same instant p1's own
// execute timer fires (50 + (d-u) + (u+eps) = 61.5).  With the model's rule,
// p1 first learns of p0's dequeue and both replicas agree p0's goes first;
// with timers-first, p1 dequeues the head it no longer owns.
// ---------------------------------------------------------------------------

sim::RunRecord run_boundary_schedule(bool timers_first) {
  adt::QueueType queue;
  sim::WorldConfig config;
  config.type = &queue;
  config.params = sim::ModelParams{3, 10.0, 2.0, 1.5};
  config.clock_offsets = {-1.5, 0.0, 0.0};
  config.timers_before_deliveries = timers_first;

  sim::World world(config, [&](sim::ProcId) {
    return std::make_unique<AlgorithmOneProcess>(queue,
                                                 TimingPolicy::standard(config.params, 0.0));
  });
  world.invoke_at(0.0, 2, queue.op_id("enqueue"), Value{7});  // seed the head
  world.invoke_at(50.0, 1, queue.op_id("dequeue"), Value::nil());
  world.invoke_at(51.5, 0, queue.op_id("dequeue"), Value::nil());
  world.run();
  return world.record();
}

TEST(TieBreakAblation, ModelRuleKeepsBoundaryTieLinearizable) {
  adt::QueueType queue;
  const auto record = run_boundary_schedule(/*timers_first=*/false);
  EXPECT_TRUE(lin::check(queue, record).result.linearizable);
  // Exactly one dequeue returns the head.
  int sevens = 0;
  for (const auto& op : record.ops) {
    if (op.op == "dequeue" && op.ret == Value{7}) ++sevens;
  }
  EXPECT_EQ(sevens, 1);
}

TEST(TieBreakAblation, TimersFirstDoubleDeliversTheHead) {
  adt::QueueType queue;
  const auto record = run_boundary_schedule(/*timers_first=*/true);
  int sevens = 0;
  for (const auto& op : record.ops) {
    if (op.op == "dequeue" && op.ret == Value{7}) ++sevens;
  }
  EXPECT_EQ(sevens, 2);  // both dequeues claim the head
  EXPECT_FALSE(lin::check(queue, record).result.linearizable);
}

// ---------------------------------------------------------------------------
// Ablation 2: the AOP timestamp back-date of Algorithm 1's line 2.
//
// Without back-dating, an accessor's timestamp covers mutators invoked up to
// X before it, which it may execute *selectively* (whichever announcements
// happened to arrive): here the peek at p0 sees enqueue(2) (min delay from
// p2) but misses the timestamp-smaller enqueue(1) (max delay from p1),
// returning head 2 while every replica converges on order 1, 2.
// ---------------------------------------------------------------------------

sim::RunRecord run_backdate_schedule(double backdate) {
  adt::QueueType queue;
  sim::WorldConfig config;
  config.type = &queue;
  config.params = sim::ModelParams{3, 10.0, 2.0, 1.5};
  config.delays = std::make_shared<sim::FunctionDelay>(
      [](sim::ProcId src, sim::ProcId, sim::Time, std::uint64_t) {
        return src == 1 ? 10.0 : 8.0;  // p1's announcements are slow
      });

  TimingPolicy timing = TimingPolicy::standard(config.params, /*X=*/2.0);
  timing.aop_backdate = backdate;  // 2.0 = line 2; 0.0 = ablated

  sim::World world(config, [&](sim::ProcId) {
    return std::make_unique<AlgorithmOneProcess>(queue, timing);
  });
  const auto enq = queue.op_id("enqueue");
  const auto deq = queue.op_id("dequeue");
  const double t = 50.0;
  world.invoke_at(t - 1.0, 1, enq, Value{1});  // ts 49, arrives p0 at 59
  world.invoke_at(t - 0.5, 2, enq, Value{2});  // ts 49.5, arrives p0 at 57.5
  world.invoke_at(t, 0, queue.op_id("peek"), Value::nil());  // drains at t + d - X = 58
  // Probe dequeues at two different replicas: without the back-date, p0's
  // replica diverges (it executed enqueue(2) before enqueue(1) through the
  // accessor's drain), and both dequeues return the same element.
  world.invoke_at(90.0, 1, deq, Value::nil());
  world.invoke_at(92.0, 0, deq, Value::nil());
  world.run();
  return world.record();
}

TEST(BackdateAblation, LineTwoBackdateKeepsAccessorConsistent) {
  adt::QueueType queue;
  const auto record = run_backdate_schedule(/*backdate=*/2.0);
  // Back-dated ts = 48 < both enqueues: the peek sees neither and returns
  // nil -- consistent (it is concurrent with both).
  EXPECT_EQ(record.ops[2].ret, Value::nil());
  EXPECT_TRUE(lin::check(queue, record).result.linearizable);
}

TEST(BackdateAblation, NoBackdateYieldsTornReadAndDivergence) {
  adt::QueueType queue;
  const auto record = run_backdate_schedule(/*backdate=*/0.0);
  // The peek saw enqueue(2) but not the smaller-timestamped enqueue(1),
  // executing the mutators out of timestamp order on p0's replica...
  EXPECT_EQ(record.ops[2].ret, Value{2});
  // ...so the two probe dequeues (at p1 and at the diverged p0) both claim
  // element 1 -- double delivery, and no linearization exists.
  EXPECT_EQ(record.ops[3].ret, Value{1});
  EXPECT_EQ(record.ops[4].ret, Value{1});
  EXPECT_FALSE(lin::check(queue, record).result.linearizable);
}

}  // namespace
}  // namespace lintime::core
