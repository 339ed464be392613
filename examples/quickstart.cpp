// Quickstart: a linearizable FIFO queue shared by five processes.
//
// Demonstrates the core public API:
//   1. pick a data type (adt::QueueType),
//   2. describe the system model (n, d, u, eps) and the tradeoff X,
//   3. drive a workload through the harness,
//   4. inspect responses, per-class latencies, and machine-checked
//      linearizability.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "adt/queue_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

int main() {
  using lintime::adt::Value;
  namespace harness = lintime::harness;

  // The model of the paper: 5 processes, message delays in [d-u, d] =
  // [8, 10], clocks synchronized to within eps = (1 - 1/n) u = 1.6.
  lintime::sim::ModelParams params{5, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  harness::RunSpec spec;
  spec.params = params;
  spec.algo = harness::AlgoKind::kAlgorithmOne;
  spec.X = 4.0;  // tradeoff: |peek| = d-X = 6, |enqueue| = X+eps = 5.6

  // Each process runs its own little script, concurrently with the others.
  spec.scripts = {
      {{"enqueue", Value{1}}, {"enqueue", Value{2}}},
      {{"enqueue", Value{10}}, {"peek", Value::nil()}},
      {{"dequeue", Value::nil()}},
      {{"peek", Value::nil()}, {"dequeue", Value::nil()}},
      {{"enqueue", Value{99}}},
  };

  lintime::adt::QueueType queue;
  const auto result = harness::execute(queue, spec);

  std::printf("operations (real-time order of invocation):\n");
  for (const auto& op : result.record.ops) {
    std::printf("  %s\n", op.to_string().c_str());
  }

  std::printf("\nper-operation latency (time units):\n");
  for (const auto& [op, stats] : result.latency) {
    std::printf("  %-8s  count=%zu  min=%.2f  max=%.2f\n", op.c_str(), stats.count, stats.min,
                stats.max);
  }

  const auto check =
      lintime::lin::check(queue, result.record, {.allow_fast_path = false}).result;
  std::printf("\nlinearizable: %s\n", check.linearizable ? "YES" : "NO");
  if (check.linearizable) {
    std::printf("witness: %s\n", check.witness_to_string(result.record.ops).c_str());
  }

  std::printf("\nreplica convergence: ");
  bool converged = true;
  for (const auto& s : result.final_states) converged &= (s == result.final_states[0]);
  std::printf("%s (%s)\n", converged ? "YES" : "NO", result.final_states[0].c_str());

  return check.linearizable && converged ? 0 : 1;
}
