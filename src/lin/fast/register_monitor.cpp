// Register monitor.  With distinct written values (and none equal to the
// initial value), any linearization is a sequence of contiguous *blocks*:
// the initial block (reads of v0) followed by one block per write (the
// write, then the reads returning its value).  A block order realizes a
// linearization iff it extends the forced block relation
//
//   A -> B  iff  some op of A precedes some op of B in interval order
//           iff  lo(A) < hi(B),   lo = min response, hi = max invoke,
//
// so the history is linearizable iff (i) every read matches v0 or a write,
// (ii) no read precedes its own write, (iii) no block precedes the initial
// block, and (iv) the block relation is acyclic.  Any cycle contains a
// 2-cycle (take the edge into the minimum-lo node on the cycle), so (iv)
// reduces to "no pair with lo(A) < hi(B) and lo(B) < hi(A)", decided by a
// prefix top-2 sweep over blocks sorted by lo.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

namespace {

constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();

struct Block {
  const ViewOp* write = nullptr;  ///< null for the initial block
  sim::Time hi = -kInf;           ///< max invoke over the block's ops
  sim::Time lo = kInf;            ///< min response over the block's ops
  bool used = false;              ///< some op absorbed
  void absorb(const ViewOp& r) {
    hi = std::max(hi, r.invoke);
    lo = std::min(lo, r.response);
    used = true;
  }
};

}  // namespace

bool monitor_register(const HistoryView& view) {
  // Indexed by the rank of the written / read value; the initial value's
  // rank holds the initial block (no write has it, per the classifier).
  std::vector<Block> blocks(view.num_ranks);
  for (const auto& r : view.ops) {
    auto& b = blocks[r.rank];
    if (r.kind == OpKind::kMutator) b.write = &r;
    b.absorb(r);
  }
  const Block init = blocks[view.initial_rank];

  std::vector<Block> all;
  all.reserve(blocks.size());
  for (std::uint32_t v = 0; v < blocks.size(); ++v) {
    const Block& b = blocks[v];
    if (v == view.initial_rank || !b.used) continue;
    if (b.write == nullptr) return false;  // read of a never-written value
    // A block's ops other than the write are reads, and the write's own
    // response is at least its invoke, so lo < invoke iff some read of the
    // value responded before its write was invoked.
    if (b.lo < b.write->invoke) return false;  // read precedes write
    all.push_back(b);
  }
  if (init.used) {
    // The initial block must be first: any block with an op preceding one
    // of its reads is a contradiction.
    for (const auto& b : all) {
      if (b.lo < init.hi) return false;
    }
    all.push_back(init);
  }

  // 2-cycle sweep: sort by lo; for each block B, the candidates A with
  // lo(A) < hi(B) form a prefix, and a cycle exists iff some such A != B
  // has hi(A) > lo(B).  Track prefix top-2 of hi to exclude B itself.
  std::sort(all.begin(), all.end(),
            [](const Block& a, const Block& b) { return a.lo < b.lo; });
  const std::size_t n = all.size();
  std::vector<sim::Time> lo_sorted(n);
  for (std::size_t i = 0; i < n; ++i) lo_sorted[i] = all[i].lo;
  // prefix_best[i]: over all[0..i): largest hi, its index, and second hi.
  std::vector<sim::Time> best(n + 1, -kInf);
  std::vector<sim::Time> second(n + 1, -kInf);
  std::vector<std::size_t> best_idx(n + 1, n);
  for (std::size_t i = 0; i < n; ++i) {
    best[i + 1] = best[i];
    second[i + 1] = second[i];
    best_idx[i + 1] = best_idx[i];
    if (all[i].hi > best[i + 1]) {
      second[i + 1] = best[i + 1];
      best[i + 1] = all[i].hi;
      best_idx[i + 1] = i;
    } else if (all[i].hi > second[i + 1]) {
      second[i + 1] = all[i].hi;
    }
  }
  for (std::size_t b = 0; b < n; ++b) {
    const auto prefix = static_cast<std::size_t>(
        std::lower_bound(lo_sorted.begin(), lo_sorted.end(), all[b].hi) - lo_sorted.begin());
    if (prefix == 0) continue;
    const sim::Time max_hi = (best_idx[prefix] == b) ? second[prefix] : best[prefix];
    if (max_hi > all[b].lo) return false;
  }
  return true;
}

}  // namespace lintime::lin::fast
