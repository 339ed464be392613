#pragma once
// Internal: the memoized permutation search behind lin::check's general
// route and the sequential-consistency checker, plus the search-state
// machinery the non-deterministic checker reuses: bitset precedence rows,
// the packed (placed-set, fingerprint) memo table, and the shared real-time
// precedence relation.  The two deterministic checkers differ only in the
// precedence relation the witness permutation must respect.
//
// The search is a Wing-Gong DFS over "minimal" candidates (operations none
// of whose strict predecessors are still unplaced), memoized on (placed-set,
// canonical object state) so each equivalent node is explored once.

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adt/data_type.hpp"
#include "lin/check.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin::detail {

/// Number of 64-bit words needed for an n-operation placed bitset.
[[nodiscard]] constexpr std::size_t placed_word_count(std::size_t n) { return (n + 63) / 64; }

[[nodiscard]] inline bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return ((bits[i >> 6U] >> (i & 63U)) & 1U) != 0;
}

inline void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6U] |= std::uint64_t{1} << (i & 63U);
}

inline void clear_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6U] &= ~(std::uint64_t{1} << (i & 63U));
}

/// The precedence relation both linearizability checkers place on recorded
/// operations: program order within a process (invocation order, uid breaks
/// exact-boundary ties where a response and the next invocation share a real
/// time) and strict real-time order across processes.
[[nodiscard]] inline bool realtime_precedes(const sim::OpRecord& a, const sim::OpRecord& b) {
  if (a.proc == b.proc) {
    if (a.invoke_real != b.invoke_real) return a.invoke_real < b.invoke_real;
    return a.uid < b.uid;
  }
  return a.response_real < b.invoke_real;
}

/// Precedence adjacency packed into 64-bit rows (n^2 bits instead of n^2
/// bytes), with word-wise successor-count updates when an operation is
/// placed or unplaced.
class PrecedenceMatrix {
 public:
  template <typename PrecedesFn>
  PrecedenceMatrix(std::size_t n, const PrecedesFn& precedes_fn)
      : words_(placed_word_count(n)), rows_(n * words_, 0), pred_count_(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && precedes_fn(i, j)) {
          rows_[i * words_ + (j >> 6U)] |= std::uint64_t{1} << (j & 63U);
          ++pred_count_[j];
        }
      }
    }
  }

  /// True iff every strict predecessor of `i` has been placed.
  [[nodiscard]] bool ready(std::size_t i) const { return pred_count_[i] == 0; }

  /// Placing `i` releases one pending predecessor from every successor j.
  void place(std::size_t i) { update_row(i, -1); }
  void unplace(std::size_t i) { update_row(i, +1); }

 private:
  void update_row(std::size_t i, int delta) {
    const std::uint64_t* row = rows_.data() + i * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(bits));
        pred_count_[(w << 6U) + b] += delta;
        bits &= bits - 1;
      }
    }
  }

  std::size_t words_;
  std::vector<std::uint64_t> rows_;
  std::vector<int> pred_count_;
};

/// Dead-node memo keyed on the packed {placed-bitset words, 128-bit state
/// fingerprint}: two search nodes with the same placed set and equivalent
/// state have identical sub-futures, so each pair is explored once.
///
/// Collision safety: each entry stores the canonical() form the fingerprint
/// was computed from, and a lookup only prunes when the stored canonical
/// matches the probing state's.  A fingerprint collision (distinct states,
/// equal fingerprints) therefore costs re-exploration of one subtree, never
/// a wrong verdict; mark_dead keeps the first entry (try_emplace), so a
/// collision cannot evict recorded knowledge either.
class StateMemo {
 public:
  [[nodiscard]] bool known_dead(const std::vector<std::uint64_t>& placed,
                                const adt::Fingerprint& fp, const adt::ObjectState& state) {
    build_key(placed, fp);
    const auto it = dead_.find(scratch_key_);
    if (it == dead_.end()) return false;
    if (it->second == state.canonical()) {
      ++hits_;
      return true;
    }
    ++collisions_;
    return false;
  }

  void mark_dead(const std::vector<std::uint64_t>& placed, const adt::Fingerprint& fp,
                 const adt::ObjectState& state) {
    build_key(placed, fp);
    dead_.try_emplace(scratch_key_, state.canonical());
  }

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t collisions() const { return collisions_; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const noexcept {
      // The key's tail is the already well-mixed 128-bit fingerprint; fold
      // the placed words in boost-style.
      std::size_t h = 0;
      for (const auto w : key) h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
      return h;
    }
  };

  void build_key(const std::vector<std::uint64_t>& placed, const adt::Fingerprint& fp) {
    scratch_key_.assign(placed.begin(), placed.end());
    scratch_key_.push_back(fp.hi);
    scratch_key_.push_back(fp.lo);
  }

  std::vector<std::uint64_t> scratch_key_;  ///< reused across lookups: no per-node allocation
  std::unordered_map<std::vector<std::uint64_t>, std::string, KeyHash> dead_;
  std::size_t hits_ = 0;        ///< lookups pruned (key and canonical both matched)
  std::size_t collisions_ = 0;  ///< key matched but canonical differed (fingerprint collision)
};

/// Per-depth scratch states for the DFS probe loop.  When the data type's
/// states support assignment (every StateBase state does), each candidate
/// probe copy-assigns into the depth's slot instead of heap-cloning.
class ScratchStates {
 public:
  /// A state at `depth` holding a copy of `src` (which must outlive the
  /// returned reference only through the call).
  adt::ObjectState& copy_at(std::size_t depth, const adt::ObjectState& src) {
    if (slots_.size() <= depth) slots_.resize(depth + 1);
    auto& slot = slots_[depth];
    if (slot == nullptr) {
      slot = src.clone();
    } else if (slot->supports_assign()) {
      slot->assign_from(src);
    } else {
      slot = src.clone();
    }
    return *slot;
  }

 private:
  std::vector<std::unique_ptr<adt::ObjectState>> slots_;
};

/// Saturating node counter: large histories can expand more nodes than fit a
/// statistic without the count wrapping to a misleading small number.
class NodeCounter {
 public:
  void bump() {
    if (count_ != SIZE_MAX) ++count_;
  }
  [[nodiscard]] std::size_t value() const { return count_; }

 private:
  std::size_t count_ = 0;
};

/// lin::check's input rule: applies `r`'s operation and argument to a fresh
/// initial state of `type`, and turns a throw from the spec (an int-state
/// type handed a string, say) into std::invalid_argument naming `r`.
void require_arg_in_spec(const adt::DataType& type, const sim::OpRecord& r);

/// Searches for a legal permutation of `ops` consistent with `precedes`
/// (precedes(i, j) == true forces i before j; must be acyclic).  Throws
/// std::invalid_argument on an incomplete record or, via
/// require_arg_in_spec, on the first record of an (operation, argument
/// kind) pair the spec rejects.  Only options.memoize is read.
[[nodiscard]] CheckResult search_permutation(
    const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
    const std::function<bool(std::size_t, std::size_t)>& precedes,
    const CheckOptions& options = {});

}  // namespace lintime::lin::detail
