// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scenario-dir DIR --pins FILE [--scale full|smoke]
//             [--spans-out FILE] [--revision REV]
//
// Prints a host stamp, every metric by name and unit, the correctness gate's
// findings, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  Exit status: 0 when the gate passed, 1 when it
// failed, 2 on a usage or setup error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/sink.hpp"
#include "workloads.hpp"

namespace {

std::string loadavg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "unknown";
  std::ostringstream os;
  os << l[0] << '/' << l[1] << '/' << l[2];
  return os.str();
}

/// Full-precision JSON number; the metrics are finite, and null keeps the
/// line parseable if one were not.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " --scenario-dir DIR --pins FILE [--scale full|smoke] [--spans-out FILE]"
               " [--revision REV]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "smoke") usage("--scale takes full or smoke");
        o.scale = value == "full" ? perfbench::Scale::kFull : perfbench::Scale::kSmoke;
      } else if (flag == "--scenario-dir") {
        o.scenario_dir = value;
      } else if (flag == "--pins") {
        o.pins_file = value;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else if (flag == "--revision") {
        revision = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || o.scenario_dir.empty() || o.pins_file.empty()) {
    usage("--workload, --scenario-dir and --pins are required");
  }

  const lintime::campaign::BenchContext ctx = lintime::campaign::current_bench_context();
  const std::string load_before = loadavg();
  std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
            << " scale=" << (o.scale == perfbench::Scale::kFull ? "full" : "smoke")
            << " trace=" << (o.trace ? 1 : 0) << " seconds=" << o.seconds << '\n';

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << '\n';
    return 2;
  }

  std::cout << "host: nproc=" << ctx.num_cpus << " compiler=\"" << ctx.compiler
            << "\" build_type=" << ctx.build_type << " revision=" << revision
            << " loadavg_before=" << load_before << " loadavg_after=" << loadavg() << '\n';
  if (ctx.build_type != "Release") {
    std::cout << "WARNING: build type '" << ctx.build_type
              << "' is not Release; these numbers are not comparable\n";
  }
  for (const std::string& note : out.notes) std::cout << note << '\n';
  for (const auto* list : {&out.metrics, &out.extra}) {
    for (const perfbench::Metric& m : *list) {
      std::cout << "metric " << m.name << ' ' << num(m.value) << ' ' << m.unit << '\n';
    }
  }
  for (const std::string& e : out.errors) std::cout << "GATE FAILED: " << e << '\n';
  std::cout << "gate: " << (out.correct ? "pass" : "FAIL") << '\n';

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::cout << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << num(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return out.correct ? 0 : 1;
}
