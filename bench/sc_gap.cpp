// The sequential-consistency gap (the paper's motivating related work:
// Lipton-Sandberg, Attiya-Welch): the same workload run under (a) the
// paper's linearizable Algorithm 1, (b) the fast sequentially consistent
// implementation, and (c) the centralized folklore algorithm -- with per-class
// latencies and both checkers' verdicts.  The SC implementation undercuts
// every linearizability lower bound proven in the paper (that is the point:
// the bounds price linearizability specifically).

#include <cstdio>

#include "adt/queue_type.hpp"
#include "bench_util.hpp"
#include "lin/check.hpp"
#include "lin/sc_checker.hpp"

int main() {
  using namespace lintime;
  using adt::Value;
  using harness::AlgoKind;

  const auto params = bench::default_params();
  adt::QueueType queue;

  std::printf("Sequential consistency vs. linearizability (n=%d, d=%g, u=%g, eps=%g)\n\n",
              params.n, params.d, params.u, params.eps);
  std::printf("%-16s  %10s  %10s  %10s  %14s  %6s\n", "implementation", "enqueue", "peek",
              "dequeue", "linearizable", "SC");

  for (const AlgoKind algo : {AlgoKind::kAlgorithmOne, AlgoKind::kSeqConsistent,
                              AlgoKind::kCentralized, AlgoKind::kAllOop}) {
    harness::RunSpec spec;
    spec.params = params;
    spec.algo = algo;
    spec.X = (algo == AlgoKind::kAlgorithmOne) ? (params.d - params.eps) / 2 : 0.0;
    spec.delays = std::make_shared<sim::ConstantDelay>(params.d);
    spec.scripts = harness::random_scripts(queue, params.n, 6, 4242);
    const auto result = harness::execute(queue, spec);

    const auto lin_check = lin::check(queue, result.record).result;
    const auto sc_check = lin::check_sequential_consistency(queue, result.record);
    std::printf("%-16s  %10.2f  %10.2f  %10.2f  %14s  %6s\n",
                harness::to_string(algo), result.stats_for("enqueue").max,
                result.stats_for("peek").max, result.stats_for("dequeue").max,
                lin_check.linearizable ? "yes" : "NO", sc_check.linearizable ? "yes" : "NO");
  }

  std::printf("\nAdversarial stale-read schedule (write at p0, immediate read at p1):\n");
  adt::QueueType q2;
  for (const AlgoKind algo : {AlgoKind::kAlgorithmOne, AlgoKind::kSeqConsistent}) {
    harness::RunSpec spec;
    spec.params = params;
    spec.algo = algo;
    spec.calls = {
        harness::Call{0.0, 0, "enqueue", Value{5}},
        harness::Call{params.eps + 0.1, 1, "peek", Value::nil()},
    };
    const auto result = harness::execute(q2, spec);
    const auto lin_check = lin::check(q2, result.record).result;
    const auto sc_check = lin::check_sequential_consistency(q2, result.record);
    std::printf("  %-16s peek -> %-4s  linearizable=%s SC=%s\n", harness::to_string(algo),
                result.record.ops[1].ret.to_string().c_str(),
                lin_check.linearizable ? "yes" : "NO", sc_check.linearizable ? "yes" : "NO");
  }
  std::printf("\n=> sequential consistency admits |mutator| = |accessor| = 0 concurrently,\n"
              "   which Theorems 2-5 prove impossible for linearizability.\n");
  return 0;
}
