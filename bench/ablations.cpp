// Ablation benchmarks for the design decisions DESIGN.md calls out:
//   1. receipt-before-timer tie-breaking in the event loop -- flipping it
//      breaks Algorithm 1 at exact boundary ties;
//   2. the AOP timestamp back-date (Algorithm 1, line 2) -- removing it
//      produces torn reads;
//   3. checker memoization -- disabling it shows the raw search blow-up.

#include <chrono>
#include <cstdio>
#include <memory>

#include "adt/queue_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "sim/world.hpp"

namespace {

using namespace lintime;
using adt::Value;

sim::RunRecord boundary_schedule(bool timers_first) {
  adt::QueueType queue;
  sim::WorldConfig config;
  config.params = sim::ModelParams{3, 10.0, 2.0, 1.5};
  config.clock_offsets = {-1.5, 0.0, 0.0};
  config.timers_before_deliveries = timers_first;
  config.type = &queue;
  sim::World world(config, [&](sim::ProcId) {
    return std::make_unique<core::AlgorithmOneProcess>(
        queue, core::TimingPolicy::standard(config.params, 0.0));
  });
  const auto deq = queue.op_id("dequeue");
  world.invoke_at(0.0, 2, queue.op_id("enqueue"), Value{7});
  world.invoke_at(50.0, 1, deq, Value::nil());
  world.invoke_at(51.5, 0, deq, Value::nil());
  world.run();
  return world.record();
}

sim::RunRecord backdate_schedule(double backdate) {
  adt::QueueType queue;
  sim::WorldConfig config;
  config.params = sim::ModelParams{3, 10.0, 2.0, 1.5};
  config.delays = std::make_shared<sim::FunctionDelay>(
      [](sim::ProcId src, sim::ProcId, sim::Time, std::uint64_t) {
        return src == 1 ? 10.0 : 8.0;
      });
  core::TimingPolicy timing = core::TimingPolicy::standard(config.params, 2.0);
  timing.aop_backdate = backdate;
  config.type = &queue;
  sim::World world(config, [&](sim::ProcId) {
    return std::make_unique<core::AlgorithmOneProcess>(queue, timing);
  });
  const auto enq = queue.op_id("enqueue");
  const auto deq = queue.op_id("dequeue");
  world.invoke_at(49.0, 1, enq, Value{1});
  world.invoke_at(49.5, 2, enq, Value{2});
  world.invoke_at(50.0, 0, queue.op_id("peek"), Value::nil());
  world.invoke_at(90.0, 1, deq, Value::nil());
  world.invoke_at(92.0, 0, deq, Value::nil());
  world.run();
  return world.record();
}

}  // namespace

// detlint:capability(wall-clock): this ablation harness reports the checker's
// real runtime — the timings are the measurement, not simulated results; the
// checker verdicts themselves stay seed-pure.
int main() {
  adt::QueueType queue;

  std::printf("Ablation 1: event-loop tie-breaking at equal times\n");
  for (const bool timers_first : {false, true}) {
    const auto record = boundary_schedule(timers_first);
    const bool ok = lin::check(queue, record).result.linearizable;
    std::printf("  %-24s -> %s\n",
                timers_first ? "timers before deliveries" : "deliveries first (model)",
                ok ? "linearizable" : "NOT linearizable (boundary tie broke Lemma 5)");
  }

  std::printf("\nAblation 2: AOP timestamp back-date (Algorithm 1 line 2, X = 2)\n");
  for (const double backdate : {2.0, 0.0}) {
    const auto record = backdate_schedule(backdate);
    const bool ok = lin::check(queue, record).result.linearizable;
    std::printf("  backdate = %-4g -> peek = %-4s %s\n", backdate,
                record.ops[2].ret.to_string().c_str(),
                ok ? "(linearizable)" : "(TORN READ: not linearizable)");
  }

  std::printf("\nAblation 3: checker memoization (unsatisfiable history: the search\n");
  std::printf("must exhaust all interleavings of concurrent enqueues)\n");
  std::printf("  %-6s %14s %14s %12s %12s\n", "ops", "memo nodes", "no-memo nodes", "memo us",
              "no-memo us");
  for (const int count : {5, 7, 9}) {
    std::vector<sim::OpRecord> h;
    for (int i = 0; i < count; ++i) {
      sim::OpRecord op;
      op.proc = i;  // all concurrent, distinct "processes"
      op.op = "enqueue";
      op.arg = Value{i % 2};
      op.ret = Value::nil();
      op.invoke_real = 0;
      op.response_real = 100;
      op.uid = static_cast<std::uint64_t>(i + 1);
      h.push_back(op);
    }
    // A dequeue that cannot be explained forces exhaustive search.
    sim::OpRecord poison;
    poison.proc = count;
    poison.op = "dequeue";
    poison.arg = Value::nil();
    poison.ret = Value{99};
    poison.invoke_real = 200;
    poison.response_real = 201;
    poison.uid = static_cast<std::uint64_t>(count + 1);
    h.push_back(poison);
    const auto t0 = std::chrono::steady_clock::now();
    const auto with = lin::check(queue, h, {.allow_fast_path = false, .memoize = true}).result;
    const auto t1 = std::chrono::steady_clock::now();
    const auto without =
        lin::check(queue, h, {.allow_fast_path = false, .memoize = false}).result;
    const auto t2 = std::chrono::steady_clock::now();
    std::printf("  %-6d %14zu %14zu %12lld %12lld\n", count, with.nodes_expanded,
                without.nodes_expanded,
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count()),
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::microseconds>(t2 - t1).count()));
  }
  return 0;
}
