// Adversary demo: what the lower bounds mean in practice.
//
// Runs two algorithms against the same adversarial schedule from the proof
// of Theorem 4 (pair-free operations need at least d + min{eps,u,d/3}):
//   * an UNSAFE variant of Algorithm 1 whose dequeues respond at d + m/2 --
//     faster than the paper's bound -- and which the adversary breaks (two
//     processes dequeue the same element; the checker proves no
//     linearization exists);
//   * the standard Algorithm 1 (dequeues at d + eps), which survives.
//
// Also shows the zero-wait strawman losing instantly.
//
// Build & run:  ./build/examples/adversary_demo

#include <cstdio>

#include "adt/queue_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "shift/theorems.hpp"

int main() {
  using lintime::adt::Value;
  namespace harness = lintime::harness;
  namespace shift = lintime::shift;

  lintime::sim::ModelParams params{3, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  lintime::adt::QueueType queue;

  std::printf("=== Theorem 4 adversary vs. dequeue (pair-free) ===\n");
  std::printf("bound: d + min{eps, u, d/3} = %.2f\n\n", params.d + params.m());

  shift::Theorem4Spec spec;
  spec.op = "dequeue";
  spec.arg0 = Value::nil();
  spec.arg1 = Value::nil();
  spec.rho = {harness::ScriptOp{"enqueue", Value{7}}};

  const auto result = shift::theorem4_pair_free(queue, spec, params);
  std::printf("%s\n", result.name.c_str());
  std::printf("unsafe |OOP| = %.2f (< bound %.2f)\n", result.unsafe_latency, result.bound);
  std::printf("%s\n", result.details.c_str());
  std::printf("=> unsafe algorithm broken: %s; standard Algorithm 1 survived: %s\n\n",
              result.unsafe_violated ? "YES" : "no", result.safe_survived ? "YES" : "no");

  std::printf("=== Zero-wait strawman ===\n");
  harness::RunSpec zw;
  zw.params = params;
  zw.algo = harness::AlgoKind::kZeroWait;
  zw.calls = {
      harness::Call{0.0, 0, "enqueue", Value{7}},
      harness::Call{20.0, 1, "dequeue", Value::nil()},
      harness::Call{21.0, 2, "dequeue", Value::nil()},
  };
  const auto zw_result = harness::execute(queue, zw);
  for (const auto& op : zw_result.record.ops) {
    std::printf("  %s\n", op.to_string().c_str());
  }
  const bool zw_linearizable =
      lintime::lin::check(queue, zw_result.record).result.linearizable;
  std::printf("=> zero-wait run linearizable: %s (both dequeues returned the head)\n",
              zw_linearizable ? "yes" : "NO");

  return (result.demonstrated() && !zw_linearizable) ? 0 : 1;
}
