// Priority-queue monitor.  extract_min returning v is legal at a point iff
// no smaller value is in the queue there, so with distinct inserted values
// a history is linearizable iff, processing values in ascending order:
//
//   V1  every extract matches a unique insert (non-nil returns), and no
//       insert returns non-nil (the classifier flags that as an impossible
//       return);
//   V2  no extract precedes its own insert;
//   V3  no extract of v has its interval covered by the union of
//       certain-presence windows (insert(w).response, extract(w).invoke)
//       of values w < v;
//   V4  no empty extract (nil return) has its interval covered by the
//       union of certain-presence windows of ALL values.
//
// The ascending sweep maintains the open-interval union incrementally, so
// each extract is queried against exactly the smaller values: O(n log n).

#include <limits>
#include <vector>

#include "lin/fast/interval_union.hpp"
#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

namespace {

constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();

struct ValuePair {
  const ViewOp* ins = nullptr;
  const ViewOp* ext = nullptr;
};

}  // namespace

bool monitor_pqueue(const HistoryView& view) {
  // Indexed by rank, so ascending value order drives the sweep.
  std::vector<ValuePair> byval(view.num_ranks);
  std::vector<const ViewOp*> empties;
  for (const auto& r : view.ops) {
    if (r.kind == OpKind::kMutator) {
      byval[r.rank].ins = &r;
    } else if (r.kind == OpKind::kEmpty) {
      empties.push_back(&r);
    } else {
      auto& p = byval[r.rank];
      if (p.ext != nullptr) return false;  // V1: value extracted twice
      p.ext = &r;
    }
  }
  IntervalUnion presence;
  for (const auto& p : byval) {
    if (p.ins == nullptr) return false;  // V1
    if (p.ext != nullptr) {
      if (p.ext->response < p.ins->invoke) return false;  // V2
      if (presence.covers(p.ext->invoke, p.ext->response)) return false;  // V3
    }
    presence.add(p.ins->response, p.ext != nullptr ? p.ext->invoke : kInf);
  }
  for (const auto* d : empties) {
    if (presence.covers(d->invoke, d->response)) return false;  // V4
  }
  return true;
}

}  // namespace lintime::lin::fast
