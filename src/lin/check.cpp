#include "lin/check.hpp"

#include "lin/fast/registry.hpp"
#include "lin/search_detail.hpp"

namespace lintime::lin {

// Declared a deterministic entry point in detlint.toml
// ([capability.deterministic]): everything reachable from here must be free
// of wall-clock reads, unseeded randomness, hash-order iteration, and
// ungranted thread spawns — detlint's reachability pass enforces it.
CheckReport check(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                  const CheckOptions& options) {
  CheckReport report;
  if (options.allow_fast_path) {
    auto cls = fast::classify(type, ops);
    if (cls.eligible) {
      for (const std::uint32_t i : cls.arg_samples) detail::require_arg_in_spec(type, ops[i]);
      report.stats.route = CheckRoute::kFastPath;
      report.stats.family = cls.family;
      report.result.linearizable = !cls.view.impossible_return && cls.monitor->run(cls.view);
      return report;
    }
    report.stats.fallback_reason = std::move(cls.reason);
  } else {
    report.stats.fallback_reason = "fast path disabled";
  }
  report.result = detail::search_permutation(
      type, ops,
      [&ops](std::size_t i, std::size_t j) { return detail::realtime_precedes(ops[i], ops[j]); },
      options);
  report.stats.route = CheckRoute::kGeneral;
  report.stats.nodes_expanded = report.result.nodes_expanded;
  report.stats.memo_hits = report.result.memo_hits;
  report.stats.memo_collisions = report.result.memo_collisions;
  return report;
}

CheckReport check(const adt::DataType& type, const sim::RunRecord& record,
                  const CheckOptions& options) {
  return check(type, record.ops, options);
}

}  // namespace lintime::lin
