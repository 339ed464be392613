// Set monitor.  Restricted to add/contains with at-most-once adds, values
// are fully independent: no supported accessor observes more than one value
// (size/add_if_absent route to the general checker).  A history is
// linearizable iff every operation can be assigned a linearization point
// inside its own interval such that, per value v, all contains(v)->0 points
// precede add(v)'s point and all contains(v)->1 points follow it -- a
// global point assignment IS a linearization (interval order is respected
// pointwise), so the per-value feasibility test below is exact, not an
// approximation.  Linear in the ranked view; the O(n log n) is the
// classifier's value ranking.

#include <algorithm>
#include <limits>
#include <vector>

#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

namespace {

constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();

struct PerValue {
  const ViewOp* add = nullptr;
  sim::Time max_r0_invoke = -kInf;  ///< contains->0: point must follow nothing, precede add
  sim::Time min_r1_response = kInf;  ///< contains->1: point must follow add
  bool has_r1 = false;
};

}  // namespace

bool monitor_set(const HistoryView& view) {
  std::vector<PerValue> byval(view.num_ranks);
  for (const auto& r : view.ops) {
    auto& s = byval[r.rank];
    if (r.kind == OpKind::kMutator) {
      s.add = &r;
    } else if (r.kind == OpKind::kAccessor) {  // contains->1
      s.has_r1 = true;
      s.min_r1_response = std::min(s.min_r1_response, r.response);
    } else {  // contains->0
      s.max_r0_invoke = std::max(s.max_r0_invoke, r.invoke);
    }
  }
  for (const auto& s : byval) {
    if (s.add == nullptr) {
      if (s.has_r1) return false;  // contains->1 without an add
      continue;
    }
    // Need a permutation with every contains->0 before the add and every
    // contains->1 after it.  An ordering a-before-b is impossible only when
    // forced strictly opposite (b.response < a.invoke), so each rejection
    // below is strict -- exact boundary ties stay feasible, matching the
    // general checker's interval order.
    if (s.max_r0_invoke > s.add->response) return false;  // add forced before a ->0
    if (s.min_r1_response < s.add->invoke) return false;  // a ->1 forced before add
    if (s.min_r1_response < s.max_r0_invoke) return false;  // a ->1 forced before a ->0
  }
  return true;
}

}  // namespace lintime::lin::fast
