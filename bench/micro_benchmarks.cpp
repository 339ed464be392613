// Google-benchmark microbenchmarks: raw throughput of the simulator kernel,
// Algorithm 1 end-to-end, the linearizability checker (with the
// memoization ablation visible through history size scaling), the empirical
// classifier, and the shifting machinery.

#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#include "adt/classify.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "clocksync/lundelius_lynch.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "shift/shift.hpp"

namespace {

using lintime::adt::Value;
namespace harness = lintime::harness;
namespace sim = lintime::sim;

sim::ModelParams params_for(int n) {
  sim::ModelParams p{n, 10.0, 2.0, 0.0};
  p.eps = p.optimal_eps();
  return p;
}

/// End-to-end Algorithm 1 run: n processes, ops_per_proc closed-loop ops.
void BM_AlgorithmOneThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lintime::adt::QueueType queue;
  std::int64_t total_ops = 0;
  for (auto _ : state) {
    harness::RunSpec spec;
    spec.params = params_for(n);
    spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 7);
    spec.scripts = harness::random_scripts(queue, n, 20, 99);
    const auto result = harness::execute(queue, spec);
    benchmark::DoNotOptimize(result.record.ops.size());
    total_ops += static_cast<std::int64_t>(result.record.ops.size());
  }
  state.SetItemsProcessed(total_ops);
}
BENCHMARK(BM_AlgorithmOneThroughput)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Simulator event throughput: message ping storm without algorithm logic.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  lintime::adt::RegisterType reg;
  std::int64_t steps = 0;
  for (auto _ : state) {
    harness::RunSpec spec;
    spec.params = params_for(8);
    spec.scripts = harness::random_scripts(reg, 8, 25, 3);
    const auto result = harness::execute(reg, spec);
    benchmark::DoNotOptimize(result.record.steps.size());
    steps += static_cast<std::int64_t>(result.record.steps.size());
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// Checker cost as history size grows (memoized Wing-Gong).
void BM_CheckerScaling(benchmark::State& state) {
  const int ops_per_proc = static_cast<int>(state.range(0));
  lintime::adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = params_for(4);
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 5);
  spec.scripts = harness::random_scripts(queue, 4, ops_per_proc, 11);
  const auto result = harness::execute(queue, spec);
  for (auto _ : state) {
    const auto check =
        lintime::lin::check(queue, result.record, {.allow_fast_path = false}).result;
    benchmark::DoNotOptimize(check.linearizable);
  }
  state.SetLabel(std::to_string(result.record.ops.size()) + " ops");
}
BENCHMARK(BM_CheckerScaling)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Empirical classifier over a full data type.
void BM_ClassifierQueue(benchmark::State& state) {
  lintime::adt::QueueType queue;
  for (auto _ : state) {
    const auto result = lintime::adt::classify_all(queue);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_ClassifierQueue);

/// shift() on a recorded run.
void BM_ShiftRun(benchmark::State& state) {
  lintime::adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = params_for(4);
  spec.scripts = harness::random_scripts(queue, 4, 10, 23);
  const auto record = harness::execute(queue, spec).record;
  const std::vector<double> x = {0.1, -0.1, 0.05, 0.0};
  for (auto _ : state) {
    const auto shifted = lintime::shift::shift_run(record, x);
    benchmark::DoNotOptimize(shifted.steps.size());
  }
}
BENCHMARK(BM_ShiftRun);

/// Clock synchronization round.
void BM_ClockSync(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = params_for(n);
  const std::vector<double> hw(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    const auto outcome = lintime::clocksync::synchronize(
        p, hw, std::make_shared<sim::ConstantDelay>(9.0));
    benchmark::DoNotOptimize(outcome.achieved_skew);
  }
}
BENCHMARK(BM_ClockSync)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

// Appended microbenchmarks: the Construction 1 validator, the
// non-deterministic checker, and the composite (multi-object) runtime.

#include "adt/counter_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "adt/pqueue_type.hpp"
#include "core/composite.hpp"
#include "core/construction.hpp"
#include "core/sharded_store.hpp"
#include "lin/fast/history_gen.hpp"
#include "lin/nondet_checker.hpp"
#include "sim/world.hpp"

namespace {

void BM_ConstructionValidator(benchmark::State& state) {
  lintime::adt::QueueType queue;
  const auto params = params_for(4);
  std::vector<const lintime::core::AlgorithmOneProcess*> replicas;
  lintime::sim::WorldConfig config;
  config.params = params;
  config.type = &queue;
  config.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 3);
  lintime::sim::World world(config, [&](sim::ProcId) {
    auto p = std::make_unique<lintime::core::AlgorithmOneProcess>(
        queue, lintime::core::TimingPolicy::standard(params, 0.0));
    replicas.push_back(p.get());
    return p;
  });
  const auto enq = queue.op_id("enqueue");
  const auto deq = queue.op_id("dequeue");
  for (int i = 0; i < 4; ++i) {
    for (int p = 0; p < 4; ++p) {
      world.invoke_at(i * 20.0 + p * 0.25, p, i % 2 == 0 ? enq : deq, lintime::adt::Value{i});
    }
  }
  world.run();
  const auto record = world.record();
  for (auto _ : state) {
    const auto c = lintime::core::build_construction(queue, replicas, record);
    benchmark::DoNotOptimize(c.valid());
  }
}
BENCHMARK(BM_ConstructionValidator);

void BM_NondetChecker(benchmark::State& state) {
  lintime::adt::PoolType det;
  lintime::adt::PoolNondetSpec spec;
  harness::RunSpec run;
  run.params = params_for(4);
  run.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 5);
  run.scripts = harness::random_scripts(det, 4, 6, 13);
  const auto record = harness::execute(det, run).record;
  for (auto _ : state) {
    const auto c = lintime::lin::check_linearizability_nondet(spec, record);
    benchmark::DoNotOptimize(c.linearizable);
  }
}
BENCHMARK(BM_NondetChecker);

/// Checker throughput per data type: ops/sec and nodes/sec over a fixed
/// Algorithm-1-generated history.  Run by the CI smoke job as
///   micro_benchmarks --benchmark_filter='BM_CheckerThroughput'
///                    --benchmark_out=BENCH_checker.json
///                    --benchmark_out_format=json
/// so before/after numbers for the memoized search land in BENCH_checker.json.
template <class TypeT>
void checker_throughput(benchmark::State& state, int ops_per_proc, unsigned script_seed) {
  const TypeT type;
  harness::RunSpec spec;
  spec.params = params_for(4);
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 5);
  spec.scripts = harness::random_scripts(type, 4, ops_per_proc, script_seed);
  const auto record = harness::execute(type, spec).record;
  std::int64_t ops = 0;
  std::int64_t nodes = 0;
  for (auto _ : state) {
    const auto check = lintime::lin::check(type, record, {.allow_fast_path = false}).result;
    benchmark::DoNotOptimize(check.linearizable);
    ops += static_cast<std::int64_t>(record.ops.size());
    nodes += static_cast<std::int64_t>(check.nodes_expanded);
  }
  state.counters["ops_per_sec"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["nodes_per_sec"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.SetLabel(type.name() + ", " + std::to_string(record.ops.size()) + " ops");
}

void BM_CheckerThroughput_Queue(benchmark::State& state) {
  checker_throughput<lintime::adt::QueueType>(state, 10, 11);
}
BENCHMARK(BM_CheckerThroughput_Queue);

void BM_CheckerThroughput_Stack(benchmark::State& state) {
  checker_throughput<lintime::adt::StackType>(state, 10, 17);
}
BENCHMARK(BM_CheckerThroughput_Stack);

void BM_CheckerThroughput_Register(benchmark::State& state) {
  checker_throughput<lintime::adt::RegisterType>(state, 12, 19);
}
BENCHMARK(BM_CheckerThroughput_Register);

void BM_CheckerThroughput_Set(benchmark::State& state) {
  checker_throughput<lintime::adt::SetType>(state, 10, 23);
}
BENCHMARK(BM_CheckerThroughput_Set);

void BM_CheckerThroughput_Counter(benchmark::State& state) {
  checker_throughput<lintime::adt::CounterType>(state, 12, 29);
}
BENCHMARK(BM_CheckerThroughput_Counter);

void BM_CheckerThroughput_Tree(benchmark::State& state) {
  checker_throughput<lintime::adt::TreeType>(state, 8, 31);
}
BENCHMARK(BM_CheckerThroughput_Tree);

/// Fast-path checker throughput: generated unambiguous histories routed
/// through lin::check() to the log-linear monitors.  The sizes run 10^4 to
/// 10^6 operations -- two to five orders of magnitude beyond what the
/// general search handles above -- and land in BENCH_checker.json next to
/// the Wing-Gong numbers.
template <class TypeT>
void fast_checker_throughput(benchmark::State& state) {
  const TypeT type;
  lintime::lin::fast::GenOptions gen;
  gen.procs = 8;
  gen.total_ops = static_cast<std::size_t>(state.range(0));
  gen.seed = 42;
  const auto ops = lintime::lin::fast::generate_unambiguous(type, gen);
  std::int64_t checked = 0;
  for (auto _ : state) {
    const auto report = lintime::lin::check(type, ops);
    benchmark::DoNotOptimize(report.result.linearizable);
    checked += static_cast<std::int64_t>(ops.size());
  }
  state.counters["ops_per_sec"] =
      benchmark::Counter(static_cast<double>(checked), benchmark::Counter::kIsRate);
  state.SetLabel(type.name() + ", " + std::to_string(ops.size()) + " ops, fast path");
}

void BM_FastCheckerThroughput_Queue(benchmark::State& state) {
  fast_checker_throughput<lintime::adt::QueueType>(state);
}
BENCHMARK(BM_FastCheckerThroughput_Queue)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FastCheckerThroughput_Stack(benchmark::State& state) {
  fast_checker_throughput<lintime::adt::StackType>(state);
}
BENCHMARK(BM_FastCheckerThroughput_Stack)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FastCheckerThroughput_Register(benchmark::State& state) {
  fast_checker_throughput<lintime::adt::RegisterType>(state);
}
BENCHMARK(BM_FastCheckerThroughput_Register)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FastCheckerThroughput_Set(benchmark::State& state) {
  fast_checker_throughput<lintime::adt::SetType>(state);
}
BENCHMARK(BM_FastCheckerThroughput_Set)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FastCheckerThroughput_PQueue(benchmark::State& state) {
  fast_checker_throughput<lintime::adt::PriorityQueueType>(state);
}
BENCHMARK(BM_FastCheckerThroughput_PQueue)->Arg(10000)->Arg(100000)->Arg(1000000);

/// End-to-end serving throughput at keyspace scale: a ShardedStore of
/// registers with as many keys as operations, served by per-shard
/// Algorithm 1 instances over n = 8 processes with an OPEN-LOOP pre-scheduled
/// arrival plan (the whole plan sits in the event queue, so the scheduler
/// carries 10^5-10^6 pending events), ops-only recording.  Run by the CI
/// smoke job next to BM_CheckerThroughput.
void BM_ServingThroughput_Ring(benchmark::State& state) {
  const auto total_ops = static_cast<std::int64_t>(state.range(0));
  const int n = 8;
  lintime::adt::RegisterType reg;
  lintime::core::ShardedStore store(reg, total_ops, 16);
  harness::RunSpec spec;
  spec.params = params_for(n);
  spec.algo = harness::AlgoKind::kShardedServing;
  spec.record_detail = sim::RecordDetail::kOpsOnly;
  spec.max_events = 60'000'000;
  spec.calls = harness::sharded_calls(store, n, static_cast<int>(total_ops / n), 42);
  std::int64_t completed = 0;
  for (auto _ : state) {
    const auto result = harness::execute(store, spec);
    benchmark::DoNotOptimize(result.record.ops.size());
    completed += static_cast<std::int64_t>(result.record.ops.size());
  }
  state.counters["ops_per_sec"] =
      benchmark::Counter(static_cast<double>(completed), benchmark::Counter::kIsRate);
  state.SetLabel(store.name());
}
BENCHMARK(BM_ServingThroughput_Ring)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_CompositeTwoObjects(benchmark::State& state) {
  lintime::adt::QueueType queue;
  lintime::adt::RegisterType reg;
  lintime::core::ProductType product({&queue, &reg});
  const auto params = params_for(4);
  // The product type outlives every per-iteration world, so its interned
  // ids are resolved once out here.
  const auto enq = product.op_id("0:enqueue");
  const auto write = product.op_id("1:write");
  const auto peek = product.op_id("0:peek");
  const auto read = product.op_id("1:read");
  std::int64_t ops = 0;
  for (auto _ : state) {
    lintime::sim::WorldConfig config;
    config.params = params;
    config.type = &product;
    config.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, 9);
    lintime::sim::World world(config, [&](sim::ProcId) {
      return std::make_unique<lintime::core::CompositeProcess>(
          product, lintime::core::TimingPolicy::standard(params, 0.0));
    });
    for (int i = 0; i < 5; ++i) {
      world.invoke_at(i * 20.0, 0, enq, lintime::adt::Value{i});
      world.invoke_at(i * 20.0, 1, write, lintime::adt::Value{i});
      world.invoke_at(i * 20.0, 2, peek, lintime::adt::Value::nil());
      world.invoke_at(i * 20.0, 3, read, lintime::adt::Value::nil());
    }
    world.run();
    ops += static_cast<std::int64_t>(world.record().ops.size());
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_CompositeTwoObjects);

}  // namespace

// Custom main (instead of benchmark_main) so the JSON context carries the
// build/compiler stamp next to google-benchmark's own num_cpus: a committed
// BENCH_checker.json should say what produced it.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef LINTIME_BUILD_TYPE
  benchmark::AddCustomContext("build_type", LINTIME_BUILD_TYPE);
#endif
#if defined(__clang__)
  benchmark::AddCustomContext("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  benchmark::AddCustomContext("compiler", "gcc " __VERSION__);
#endif
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
