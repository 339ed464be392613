#pragma once
// The per-type log-linear linearizability monitors (arXiv:2410.04581 /
// arXiv:2509.17795 style): verdict-only deciders for *unambiguous*
// histories of the five supported families.  Each runs in O(n log n) and
// consumes the classifier's HistoryView (lin/fast/classifier.hpp): flat
// intervals whose values the classifier has already replaced by dense
// ranks, so the monitors index plain vectors by rank and never compare an
// operation name or an adt::Value -- no permutation search, no state-space
// exploration, no witness.
//
// PRECONDITION (the view comes from a classifier-eligible history): every
// record is complete, operations of one process have strictly-gapped
// intervals (so interval order subsumes program order), every operation
// belongs to the family's pair, the family's distinct-value condition
// holds, and no record has an impossible return (lin::check answers those
// itself).  Under that precondition each monitor is exact: it returns true
// iff the history is linearizable.  The differential tests in tests/lin/
// cross-validate every monitor against the Wing-Gong checker on shared
// grids.

#include "lin/fast/classifier.hpp"

namespace lintime::lin::fast {

/// Register family (read/write, distinct written values, none equal to the
/// initial value).  Clusters each write with the reads returning its value
/// and decides acyclicity of the forced cluster order via an O(C log C)
/// endpoint sweep.
[[nodiscard]] bool monitor_register(const HistoryView& view);

/// Queue family (enqueue/dequeue, distinct enqueued values).  Checks the
/// queue violation patterns: unmatched/duplicate dequeues, dequeue-before-
/// enqueue, forced FIFO inversions (prefix-max sweep) and covered empty
/// dequeues (open-interval union).
[[nodiscard]] bool monitor_queue(const HistoryView& view);

/// Stack family (push/pop, distinct pushed values).  Same skeleton as the
/// queue monitor with the LIFO pattern -- push(a) < push(b) < pop(a) <
/// pop(b) (or b never popped) all forced -- detected by an offline 2-D
/// dominance sweep over a prefix-max Fenwick tree.
[[nodiscard]] bool monitor_stack(const HistoryView& view);

/// Set family (add/contains, each value added at most once).  Values are
/// independent (no size-style cross-value accessor is admitted), so the
/// monitor solves one exact point-placement feasibility check per value.
[[nodiscard]] bool monitor_set(const HistoryView& view);

/// Priority-queue family (insert/extract_min, distinct inserted values).
/// Processes values in ascending order (rank order), maintaining the
/// open-interval union of smaller-value presence windows; an extract_min is
/// a violation iff its interval is covered by that union, an empty extract
/// iff covered by the union over all values.
[[nodiscard]] bool monitor_pqueue(const HistoryView& view);

}  // namespace lintime::lin::fast
