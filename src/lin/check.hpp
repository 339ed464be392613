#pragma once
// Linearizability checking (the correctness condition of Section 2.3 made
// executable): is there a legal sequence of the data type that contains
// every recorded operation and respects the real-time order of
// non-overlapping ones?  check() is the one entry point.  It routes each
// history through the ambiguity classifier (lin/fast/classifier.hpp):
// unambiguous histories of a type with a monitor family get the O(n log n)
// monitor verdict, everything else the memoized Wing-Gong search
// (lin/search_detail.hpp), which also yields a witness.  The route and the
// search-effort statistics travel with the verdict.

#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin {

struct CheckResult {
  bool linearizable = false;
  /// A witness linearization (sequence of indices into the input vector) if
  /// linearizable.  Only the search produces one: empty on the fast path.
  std::vector<std::size_t> witness;
  /// Search-effort statistic: DFS nodes expanded.
  std::size_t nodes_expanded = 0;
  /// Memo-table statistics: lookups that pruned a subtree, and fingerprint
  /// collisions (key matched, canonical state differed).  Zero when the memo
  /// is disabled.
  std::size_t memo_hits = 0;
  std::size_t memo_collisions = 0;

  /// Human-readable rendering of the witness against the given ops.
  [[nodiscard]] std::string witness_to_string(const std::vector<sim::OpRecord>& ops) const;
};

/// Checker knobs.
struct CheckOptions {
  /// false forces the general route: the caller needs a witness or search
  /// statistics, or measures the search itself.
  bool allow_fast_path = true;
  /// The search's (placed-set, state) memo table; disabling it exposes the
  /// raw factorial search (bench/ablations).
  bool memoize = true;
};

enum class CheckRoute {
  kFastPath,  ///< decided by the family monitor (no witness)
  kGeneral,   ///< decided by the Wing-Gong search
};

[[nodiscard]] constexpr const char* to_string(CheckRoute r) {
  switch (r) {
    case CheckRoute::kFastPath: return "fast_path";
    case CheckRoute::kGeneral: return "general";
  }
  return "?";
}

/// How the verdict was produced, and at what cost.
struct CheckStats {
  CheckRoute route = CheckRoute::kGeneral;
  /// Monitor family that decided (fast path) -- kNone on the general route.
  adt::MonitorFamily family = adt::MonitorFamily::kNone;
  /// Why the general checker ran (empty on the fast path).
  std::string fallback_reason;
  /// General-search statistics; all zero on the fast path.
  std::size_t nodes_expanded = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_collisions = 0;
};

struct CheckReport {
  CheckResult result;
  CheckStats stats;
};

/// Checks `ops` against `type`, on the fast path when the classifier admits
/// it.  Throws std::invalid_argument, on either route, on an incomplete
/// record and on a record whose argument the type's sequential spec rejects
/// (the spec is applied from its initial state to the first record of each
/// (operation, argument kind) pair; the exception names the earliest
/// rejected record).
[[nodiscard]] CheckReport check(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                                const CheckOptions& options = {});

/// Convenience: checks an entire recorded run.
[[nodiscard]] CheckReport check(const adt::DataType& type, const sim::RunRecord& record,
                                const CheckOptions& options = {});

}  // namespace lintime::lin
