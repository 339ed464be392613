#include "lin/check.hpp"

#include "lin/fast/registry.hpp"

namespace lintime::lin {

namespace {

void fill_general_stats(CheckReport& report) {
  report.stats.route = CheckRoute::kGeneral;
  report.stats.nodes_expanded = report.result.nodes_expanded;
  report.stats.memo_hits = report.result.memo_hits;
  report.stats.memo_collisions = report.result.memo_collisions;
}

}  // namespace

// Declared a deterministic entry point in detlint.toml
// ([capability.deterministic]): everything reachable from here must be free
// of wall-clock reads, unseeded randomness, hash-order iteration, and
// ungranted thread spawns — detlint's reachability pass enforces it.
CheckReport check(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                  const FacadeOptions& options) {
  CheckReport report;
  if (!options.allow_fast_path || options.require_witness) {
    report.stats.fallback_reason =
        options.allow_fast_path ? "witness required" : "fast path disabled";
    report.result = check_linearizability(type, ops, options.general);
    fill_general_stats(report);
    return report;
  }
  const auto cls = fast::classify(type, ops);
  if (cls.eligible) {
    report.stats.route = CheckRoute::kFastPath;
    report.stats.family = cls.family;
    report.result.linearizable = !cls.view.impossible_return && cls.monitor->run(cls.view);
    return report;
  }
  report.stats.fallback_reason = cls.reason;
  report.result = check_linearizability(type, ops, options.general);
  fill_general_stats(report);
  return report;
}

CheckReport check(const adt::DataType& type, const sim::RunRecord& record,
                  const FacadeOptions& options) {
  return check(type, record.ops, options);
}

}  // namespace lintime::lin
