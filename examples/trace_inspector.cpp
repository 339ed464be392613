// Trace inspector: records an adversarial run, saves it with the trace
// serializer, reloads it, and analyzes it -- latencies, admissibility,
// linearizability (with witness), and the effect of a shift.
//
// Usage:
//   ./build/examples/trace_inspector            # self-demo (generates a run)
//   ./build/examples/trace_inspector FILE       # inspect a saved trace
//
// Traces are the text format of src/sim/trace_io.hpp; the self-demo writes
// one to /tmp/lintime_demo.trace so you can try the file mode immediately.

#include <cstdio>
#include <fstream>

#include "adt/queue_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "shift/shift.hpp"
#include "sim/trace_io.hpp"

namespace {

lintime::sim::RunRecord make_demo_run() {
  using lintime::adt::Value;
  lintime::adt::QueueType queue;
  lintime::harness::RunSpec spec;
  spec.params = lintime::sim::ModelParams{3, 10.0, 2.0, 1.0};
  spec.clock_offsets = {0.5, -0.5, 0.0};
  spec.delays = std::make_shared<lintime::sim::UniformRandomDelay>(8.0, 10.0, 11);
  spec.scripts = {
      {{"enqueue", Value{1}}, {"enqueue", Value{2}}},
      {{"dequeue", Value::nil()}, {"peek", Value::nil()}},
      {{"enqueue", Value{3}}, {"dequeue", Value::nil()}},
  };
  return lintime::harness::execute(queue, spec).record;
}

void inspect(const lintime::sim::RunRecord& record) {
  lintime::adt::QueueType queue;

  std::printf("model: n=%d, d=%g, u=%g, eps=%g\n", record.params.n, record.params.d,
              record.params.u, record.params.eps);
  std::printf("steps: %zu, messages: %zu, operations: %zu, last time: %g\n\n",
              record.steps.size(), record.messages.size(), record.ops.size(),
              record.last_time());

  std::printf("operations:\n");
  for (const auto& op : record.ops) std::printf("  %s\n", op.to_string().c_str());

  const auto adm = lintime::shift::check_admissibility(record);
  std::printf("\nadmissible: %s (max skew %g, delays in [%g, %g])\n",
              adm.admissible ? "yes" : "NO", adm.max_skew, adm.min_delay, adm.max_delay);
  for (const auto& v : adm.violations) std::printf("  violation: %s\n", v.detail.c_str());

  const auto check = lintime::lin::check(queue, record, {.allow_fast_path = false}).result;
  std::printf("linearizable: %s (%zu nodes)\n", check.linearizable ? "yes" : "NO",
              check.nodes_expanded);
  if (check.linearizable) {
    std::printf("witness: %s\n", check.witness_to_string(record.ops).c_str());
  }

  // What happens if the adversary had shifted p0 half a unit later?
  std::vector<double> x(static_cast<std::size_t>(record.params.n), 0.0);
  x[0] = 0.5;
  const auto shifted = lintime::shift::shift_run(record, x);
  const auto adm2 = lintime::shift::check_admissibility(shifted);
  std::printf("\nafter shift(p0 += 0.5): admissible: %s", adm2.admissible ? "yes" : "NO");
  if (adm2.admissible) {
    std::printf(", linearizable: %s",
                lintime::lin::check(queue, shifted).result.linearizable ? "yes" : "NO");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    inspect(lintime::sim::read_record(in));
    return 0;
  }

  const auto record = make_demo_run();
  const char* path = "/tmp/lintime_demo.trace";
  {
    std::ofstream out(path);
    lintime::sim::write_record(out, record);
  }
  std::printf("(self-demo: trace written to %s; re-run with that path)\n\n", path);

  std::ifstream in(path);
  inspect(lintime::sim::read_record(in));
  return 0;
}
