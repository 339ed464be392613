// Stack monitor.  For complete histories with distinct pushed values the
// stack violations are the local patterns (BEEH-style bad patterns, the
// basis of arXiv:2410.04581's stack monitor):
//
//   V1  a pop returns a value never pushed, or a value twice, or a push
//       returns non-nil (the classifier flags that one as an impossible
//       return);
//   V2  a pop precedes its own push;
//   V3  a forced LIFO inversion: push(a) < push(b), push(b) < pop(a), and
//       pop(a) < pop(b) or b is never popped -- b certainly sits above a
//       when a is popped;
//   V4  an empty pop's interval is covered by the union of
//       certain-presence windows (push(v).response, pop(v).invoke).
//
// V3 is a 2-D dominance query (push(b).invoke > push(a).response AND
// push(b).response < pop(a).invoke AND key(b) > pop(a).response with
// key(b) = pop(b).invoke or +inf), answered offline with a descending
// two-pointer sweep into a prefix-max Fenwick tree over compressed
// push-response coordinates.  Everything is O(n log n).

#include <algorithm>
#include <limits>
#include <vector>

#include "lin/fast/interval_union.hpp"
#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

namespace {

constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();

struct ValuePair {
  const ViewOp* push = nullptr;
  const ViewOp* pop = nullptr;
};

}  // namespace

bool monitor_stack(const HistoryView& view) {
  std::vector<ValuePair> values(view.num_ranks);  // every rank is a pushed or popped value
  std::vector<const ViewOp*> empties;
  for (const auto& r : view.ops) {
    if (r.kind == OpKind::kMutator) {
      values[r.rank].push = &r;
    } else if (r.kind == OpKind::kEmpty) {
      empties.push_back(&r);
    } else {
      auto& p = values[r.rank];
      if (p.pop != nullptr) return false;  // V1: value popped twice
      p.pop = &r;
    }
  }
  for (const auto& p : values) {
    if (p.push == nullptr) return false;                                    // V1
    if (p.pop != nullptr && p.pop->response < p.push->invoke) return false;  // V2
  }

  // V3 sweep.  Candidates b sorted by push.invoke descending are inserted
  // while push(b).invoke > push(a).response; the Fenwick tree holds key(b)
  // at b's compressed push.response, so the prefix below pop(a).invoke is
  // exactly {b : push(b).response < pop(a).invoke}.
  if (!values.empty()) {
    std::vector<sim::Time> resp_coords(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      resp_coords[i] = values[i].push->response;
    }
    std::sort(resp_coords.begin(), resp_coords.end());
    resp_coords.erase(std::unique(resp_coords.begin(), resp_coords.end()), resp_coords.end());

    std::vector<std::size_t> by_push_inv_desc(values.size());
    for (std::size_t i = 0; i < by_push_inv_desc.size(); ++i) by_push_inv_desc[i] = i;
    std::sort(by_push_inv_desc.begin(), by_push_inv_desc.end(),
              [&values](std::size_t x, std::size_t y) {
                return values[x].push->invoke > values[y].push->invoke;
              });
    std::vector<std::size_t> queries;  // indices of popped values a
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i].pop != nullptr) queries.push_back(i);
    }
    std::sort(queries.begin(), queries.end(), [&values](std::size_t x, std::size_t y) {
      return values[x].push->response > values[y].push->response;
    });

    PrefixMaxFenwick fen(resp_coords.size());
    std::size_t inserted = 0;
    for (const auto a : queries) {
      const sim::Time threshold = values[a].push->response;
      while (inserted < by_push_inv_desc.size() &&
             values[by_push_inv_desc[inserted]].push->invoke > threshold) {
        const auto& b = values[by_push_inv_desc[inserted]];
        const auto coord = static_cast<std::size_t>(
            std::lower_bound(resp_coords.begin(), resp_coords.end(), b.push->response) -
            resp_coords.begin());
        fen.raise(coord, b.pop != nullptr ? b.pop->invoke : kInf);
        ++inserted;
      }
      const auto upto = static_cast<std::size_t>(
          std::lower_bound(resp_coords.begin(), resp_coords.end(), values[a].pop->invoke) -
          resp_coords.begin());
      if (fen.prefix_max(upto) > values[a].pop->response) return false;
    }
  }

  // V4: empty pops vs. the union of certain-presence windows.
  if (!empties.empty()) {
    IntervalUnion presence;
    for (const auto& p : values) {
      presence.add(p.push->response, p.pop != nullptr ? p.pop->invoke : kInf);
    }
    for (const auto* d : empties) {
      if (presence.covers(d->invoke, d->response)) return false;
    }
  }
  return true;
}

}  // namespace lintime::lin::fast
