#pragma once
// The benchmark's four workloads.  Each drives lintime only through public
// layer functions, twice over:
//  - the untraced run goes through campaign::run_campaign and gives the
//    end-to-end metrics;
//  - the traced run calls the same layers one at a time (plan, execute,
//    reduce, check, project, sink), with a span around each, assembles the
//    same campaign::JobResults itself, and gives the per-layer metrics.
// Both runs check their outputs against the workload's correctness gate.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Scale { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string scenario_dir;  ///< the benchmark's own scenario files
  std::string pins_file;     ///< pinned digests and verdict counts
  std::string spans_out;     ///< traced run: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  ///< each names the workload
  std::uint64_t attempted = 0;      ///< operations attempted, summed over runs
  std::uint64_t failed = 0;         ///< operations that failed unexpectedly
  std::vector<Metric> metrics;      ///< the JSON set: end-to-end or per-layer
  std::vector<Metric> extra;        ///< printed only
  std::vector<std::string> notes;   ///< printed only (digests, pin status)
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
