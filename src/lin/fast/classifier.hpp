#pragma once
// Ambiguity classifier (the routing test of arXiv:2509.17795 made
// executable for this library's types): decides, in O(n log n), whether a
// concrete history satisfies the unambiguity precondition of its type's
// monitor family.  Eligible histories are decided by the log-linear
// monitors (lin/fast/monitors.hpp); everything else -- unsupported
// operations, duplicate mutator values, zero-gap process-local intervals,
// types without a family -- routes to the general Wing-Gong checker.
//
// The classifier is deliberately conservative: it only answers "fast" when
// the monitor's exactness proof applies.  A "fallback" answer is never a
// verdict about linearizability, only about which checker must decide.
//
// While it checks eligibility the classifier also builds the history's
// HistoryView: one flat entry per record holding its interval, its kind and
// the dense rank of its value.  Values are compared only here, in one sort;
// the monitors consume the view and index plain vectors by rank, never
// looking at an operation name or an adt::Value again.

#include <cstdint>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin::fast {

struct MonitorEntry;

/// The role of one record in its family's monitor.
enum class OpKind : std::uint8_t {
  kMutator,   ///< write / enqueue / push / add / insert; rank of its arg
  kAccessor,  ///< read / dequeue / pop / extract_min: rank of its return;
              ///< contains->1: rank of its arg
  kEmpty,     ///< dequeue / pop / extract_min that returned nil (rank
              ///< unused); contains->0: rank of its arg
};

/// One record as the monitors see it.
struct ViewOp {
  sim::Time invoke = 0;
  sim::Time response = 0;
  sim::ProcId proc = 0;
  std::uint32_t rank = 0;  ///< dense rank of the record's value (see OpKind)
  OpKind kind = OpKind::kMutator;
};

/// A classifier-eligible history, flat and value-ranked.  Rank order is
/// adt::Value order: rank(a) < rank(b) iff a < b, so the priority-queue
/// sweep can walk values in ascending order by walking ranks.
struct HistoryView {
  /// One entry per record, in record order (the monitors' verdicts depend
  /// only on the set of intervals, not on their order).
  std::vector<ViewOp> ops;
  /// Every rank is below this.
  std::uint32_t num_ranks = 0;
  /// Register family: rank of the initial value (reads returning it join
  /// the initial block).  Unused by the other families.
  std::uint32_t initial_rank = 0;
  /// Some record returned what no sequential run of the type returns for
  /// it: a mutator's non-nil return, or a contains outside {0, 1}.  Such a
  /// history is not linearizable; lin::check answers it without a monitor.
  bool impossible_return = false;
};

struct Classification {
  bool eligible = false;
  adt::MonitorFamily family = adt::MonitorFamily::kNone;
  /// Why the history must fall back (empty when eligible).
  std::string reason;
  /// The family's monitor (null when not eligible).
  const MonitorEntry* monitor = nullptr;
  /// The history's ranked view (empty when not eligible).
  HistoryView view;
};

/// Classifies `ops` against `type`'s monitor family.  Never throws on
/// malformed histories: incomplete records simply classify as fallback, and
/// the general checker then reports them with its usual exception.
///
/// Fallback reasons, in the order checked: no family / no monitor, empty
/// history, an incomplete record, an operation outside the monitor's set
/// (the first such record is named), zero-gap or overlapping intervals
/// within one process, a duplicate mutator value, a register write of the
/// initial value.  The cheap checks run before any value is ranked.
[[nodiscard]] Classification classify(const adt::DataType& type,
                                      const std::vector<sim::OpRecord>& ops);

}  // namespace lintime::lin::fast
