// Queue monitor.  For complete histories with distinct enqueued values the
// queue violations are exactly the four local patterns (the queue axioms
// underlying arXiv:2410.04581's monitor):
//
//   V1  a dequeue returns a value never enqueued, or a value twice, or its
//       enqueue returns non-nil (the classifier flags that one as an
//       impossible return);
//   V2  a dequeue precedes its own enqueue;
//   V3  a dequeued value's enqueue is forced after the enqueue of a value
//       that is never dequeued (the stuck value would have to come out
//       first);
//   V4  a FIFO inversion is forced: enq(a) < enq(b) and deq(b) < deq(a);
//   V5  an empty dequeue's interval is covered by the union of
//       certain-presence windows (enq(v).response, deq(v).invoke).
//
// V4 is a prefix-max sweep over pairs sorted by enqueue response; V5 is an
// open-interval union query.  Everything is O(n log n).

#include <algorithm>
#include <limits>
#include <vector>

#include "lin/fast/interval_union.hpp"
#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

namespace {

constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();

struct ValuePair {
  const ViewOp* enq = nullptr;
  const ViewOp* deq = nullptr;
};

}  // namespace

bool monitor_queue(const HistoryView& view) {
  std::vector<ValuePair> byval(view.num_ranks);  // every rank is an enqueued or dequeued value
  std::vector<const ViewOp*> empties;
  for (const auto& r : view.ops) {
    if (r.kind == OpKind::kMutator) {
      byval[r.rank].enq = &r;
    } else if (r.kind == OpKind::kEmpty) {
      empties.push_back(&r);
    } else {
      auto& p = byval[r.rank];
      if (p.deq != nullptr) return false;  // V1: value dequeued twice
      p.deq = &r;
    }
  }

  sim::Time stuck_min_resp = kInf;  // earliest response among never-dequeued enqueues
  for (const auto& p : byval) {
    if (p.enq == nullptr) return false;                                      // V1
    if (p.deq == nullptr) stuck_min_resp = std::min(stuck_min_resp, p.enq->response);
  }
  std::vector<ValuePair> matched;
  matched.reserve(byval.size());
  for (const auto& p : byval) {
    if (p.deq == nullptr) continue;
    if (p.deq->response < p.enq->invoke) return false;  // V2
    if (p.enq->invoke > stuck_min_resp) return false;   // V3
    matched.push_back(p);
  }

  // V4: sort by enqueue response; for each b, the a's with
  // enq(a).response < enq(b).invoke form a prefix, and a forced inversion
  // exists iff some such a has deq(a).invoke > deq(b).response.
  std::sort(matched.begin(), matched.end(), [](const ValuePair& a, const ValuePair& b) {
    return a.enq->response < b.enq->response;
  });
  std::vector<sim::Time> enq_resp(matched.size());
  std::vector<sim::Time> prefix_max_deq_inv(matched.size() + 1, -kInf);
  for (std::size_t i = 0; i < matched.size(); ++i) {
    enq_resp[i] = matched[i].enq->response;
    prefix_max_deq_inv[i + 1] = std::max(prefix_max_deq_inv[i], matched[i].deq->invoke);
  }
  for (const auto& b : matched) {
    const auto prefix = static_cast<std::size_t>(
        std::lower_bound(enq_resp.begin(), enq_resp.end(), b.enq->invoke) - enq_resp.begin());
    if (prefix_max_deq_inv[prefix] > b.deq->response) return false;
  }

  // V5: empty dequeues vs. the union of certain-presence windows.
  if (!empties.empty()) {
    IntervalUnion presence;
    for (const auto& p : byval) {
      presence.add(p.enq->response, p.deq != nullptr ? p.deq->invoke : kInf);
    }
    for (const auto* d : empties) {
      if (presence.covers(d->invoke, d->response)) return false;
    }
  }
  return true;
}

}  // namespace lintime::lin::fast
