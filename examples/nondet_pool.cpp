// Non-deterministic data types (the paper's future-work direction,
// Section 6.2): a task pool whose take() may hand out ANY pending task.
//
// Workers put and take tasks concurrently.  The replicas run the
// deterministic resolution (take = smallest id) through Algorithm 1; the run
// is then validated twice:
//   * against the deterministic specification, and
//   * against the relaxed non-deterministic one (any element is a legal
//     take) -- the specification under which future, faster implementations
//     could be correct even though no deterministic resolution explains
//     their behaviour.
//
// Build & run:  ./build/examples/nondet_pool

#include <cstdio>

#include "adt/pool_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "lin/nondet_checker.hpp"

int main() {
  using lintime::adt::Value;
  namespace harness = lintime::harness;

  lintime::sim::ModelParams params{4, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  harness::RunSpec spec;
  spec.params = params;
  spec.X = 1.0;  // fast puts (X+eps = 2.5), size queries at d-X = 9
  spec.delays =
      std::make_shared<lintime::sim::UniformRandomDelay>(params.min_delay(), params.d, 7);

  // Producers at p0/p1, consumers at p2/p3.
  spec.scripts = {
      {{"put", Value{101}}, {"put", Value{102}}, {"size", Value::nil()}},
      {{"put", Value{201}}, {"put", Value{202}}},
      {{"take", Value::nil()}, {"take", Value::nil()}},
      {{"take", Value::nil()}, {"size", Value::nil()}},
  };

  lintime::adt::PoolType pool;
  lintime::adt::PoolNondetSpec nondet_spec;
  const auto result = harness::execute(pool, spec);

  std::printf("task pool session:\n");
  for (const auto& op : result.record.ops) {
    std::printf("  %s\n", op.to_string().c_str());
  }

  const auto det = lintime::lin::check(pool, result.record).result;
  const auto relaxed = lintime::lin::check_linearizability_nondet(nondet_spec, result.record);
  std::printf("\nlinearizable w.r.t. deterministic (min-take) spec: %s\n",
              det.linearizable ? "YES" : "NO");
  std::printf("linearizable w.r.t. non-deterministic (any-take) spec: %s\n",
              relaxed.linearizable ? "YES" : "NO");

  // A history only the relaxed spec accepts: both puts complete before the
  // takes start, yet the takes come out in non-minimal order.  No min-take
  // resolution explains it; an any-take implementation could produce it.
  std::vector<lintime::sim::OpRecord> twisted;
  auto add = [&twisted](int proc, const char* op, Value arg, Value ret, double inv,
                        double resp) {
    lintime::sim::OpRecord r;
    r.proc = proc;
    r.op = op;
    r.arg = std::move(arg);
    r.ret = std::move(ret);
    r.invoke_real = inv;
    r.response_real = resp;
    r.uid = twisted.size() + 1;
    twisted.push_back(r);
  };
  add(0, "put", Value{1}, Value::nil(), 0, 1);
  add(0, "put", Value{2}, Value::nil(), 2, 3);
  add(1, "take", Value::nil(), Value{2}, 4, 5);  // non-minimal!
  add(2, "take", Value::nil(), Value{1}, 6, 7);
  const auto det2 = lintime::lin::check(pool, twisted).result;
  const auto relaxed2 = lintime::lin::check_linearizability_nondet(nondet_spec, twisted);
  std::printf("\nsequential history put(1).put(2).take->2.take->1:\n");
  std::printf("  deterministic spec: %s, non-deterministic spec: %s\n",
              det2.linearizable ? "accepted" : "REJECTED",
              relaxed2.linearizable ? "accepted" : "REJECTED");

  return det.linearizable && relaxed.linearizable && !det2.linearizable &&
                 relaxed2.linearizable
             ? 0
             : 1;
}
