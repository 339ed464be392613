#pragma once
// Machine-readable campaign sinks.  Every experiment that routes through the
// campaign layer can emit its results as JSON (full fidelity: per-job tags,
// metrics, errors, plus the campaign aggregate) and CSV (one row per
// (job, operation), friendly to spreadsheets and pandas).  Both formats are
// deterministic functions of the CampaignResult -- numbers round-trip
// (fmt_double) and key order is fixed -- so output bytes are
// identical regardless of executor thread count.
//
// Wall-clock timings are deliberately NOT part of these sinks (they would
// break byte-identity); bench artifacts carry them separately via
// write_bench_entry.

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/executor.hpp"

namespace lintime::campaign {

/// `%.Pg` with the smallest P that parses back to exactly `v` ("0.1", not
/// "0.10000000000000001"), locale-independent.  Integral values below 1e15
/// print as integers ("10", not "1e+01"), -0 prints as "0", and non-finite
/// values as "inf"/"-inf"/"nan".
[[nodiscard]] std::string fmt_double(double v);

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Full campaign dump: {"campaign", "job_count", "jobs": [...], "aggregate"}.
void write_json(std::ostream& os, const CampaignResult& result);
[[nodiscard]] std::string to_json(const CampaignResult& result);

/// Flat per-(job, op) latency table; job-level counters (steps, messages,
/// drops, quiescence time) repeat on every row of the job so the file is
/// self-contained.  Tags are flattened into a "tags" column as "k=v;k=v".
/// Failed or op-less jobs still get one row (empty op columns).
void write_csv(std::ostream& os, const CampaignResult& result);
[[nodiscard]] std::string to_csv(const CampaignResult& result);

/// One entry of a BENCH_*.json perf artifact: a JSON object with the
/// campaign name, job/worker counts and measured wall-clock seconds.
/// Appended by callers into a JSON array they manage.  When `total_ops` is
/// non-zero (throughput campaigns set it from the aggregate's completed-op
/// count) the entry additionally reports the derived end-to-end
/// "ops_per_sec".
struct BenchEntry {
  std::string campaign;
  std::size_t job_count = 0;
  int workers = 0;
  double wall_seconds = 0;
  std::size_t total_ops = 0;
};
void write_bench_entry(std::ostream& os, const BenchEntry& entry);

/// Host/build stamp for BENCH_*.json artifacts: hardware thread count,
/// CMake build type and compiler.  A throughput number is meaningless
/// without these -- a Debug or single-core recording has to explain itself.
/// Deliberately NOT part of write_json/write_csv: the result sinks stay
/// byte-identical across hosts and worker counts; only the perf artifacts
/// (which already carry wall-clock) get stamped.
struct BenchContext {
  int num_cpus = 0;        ///< std::thread::hardware_concurrency()
  std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at compile time
  std::string compiler;    ///< compiler id + version from predefined macros
};
[[nodiscard]] BenchContext current_bench_context();
void write_bench_context(std::ostream& os, const BenchContext& ctx);

}  // namespace lintime::campaign
