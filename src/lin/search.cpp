#include "lin/search_detail.hpp"

#include <sstream>
#include <stdexcept>

namespace lintime::lin {

namespace detail {

namespace {

class Search {
 public:
  Search(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
         const std::function<bool(std::size_t, std::size_t)>& precedes_fn,
         const CheckOptions& options)
      : ops_(ops), n_(ops.size()), prec_(n_, precedes_fn), options_(options) {
    // Resolve every record's operation name to its interned id once; the
    // probe loop then dispatches on integers only.  Pure accessors never
    // mutate, so their probes run on the live state without a copy.  The
    // first record of each (operation, argument kind) pair is checked
    // against the spec before the search starts, so a rejected argument
    // throws whether or not the search would reach it.
    ids_.reserve(n_);
    pure_accessor_.reserve(n_);
    std::vector<std::uint8_t> kinds_seen(type.ops().size(), 0);  // bit per Value kind
    for (const auto& op : ops_) {
      const adt::OpId id = type.op_id(op.op);
      ids_.push_back(id);
      pure_accessor_.push_back(type.category(id) == adt::OpCategory::kPureAccessor);
      const auto kind_bit = static_cast<std::uint8_t>(1U << op.arg.kind_order());
      if ((kinds_seen[id.index()] & kind_bit) == 0) {
        kinds_seen[id.index()] |= kind_bit;
        require_arg_in_spec(type, op);
      }
    }
    placed_.assign(placed_word_count(n_), 0);
    initial_ = type.initial_state();
  }

  CheckResult run() {
    CheckResult result;
    result.linearizable = dfs(*initial_, 0);
    result.witness = witness_;
    result.nodes_expanded = nodes_.value();
    result.memo_hits = memo_.hits();
    result.memo_collisions = memo_.collisions();
    return result;
  }

 private:
  bool dfs(adt::ObjectState& state, std::size_t placed_count) {
    if (placed_count == n_) return true;
    nodes_.bump();

    adt::Fingerprint fp;
    if (options_.memoize) {
      fp = state.fingerprint();
      if (memo_.known_dead(placed_, fp, state)) return false;
    }

    for (std::size_t i = 0; i < n_; ++i) {
      if (test_bit(placed_, i) || !prec_.ready(i)) continue;

      // A pure accessor leaves the state unchanged, so it probes (and
      // recurses) on the live state; everything else probes a scratch copy.
      adt::ObjectState& probe =
          pure_accessor_[i] ? state : scratch_.copy_at(placed_count, state);
      if (probe.apply(ids_[i], ops_[i].arg) != ops_[i].ret) continue;

      set_bit(placed_, i);
      prec_.place(i);
      witness_.push_back(i);

      if (dfs(probe, placed_count + 1)) return true;

      witness_.pop_back();
      prec_.unplace(i);
      clear_bit(placed_, i);
    }

    if (options_.memoize) memo_.mark_dead(placed_, fp, state);
    return false;
  }

  const std::vector<sim::OpRecord>& ops_;
  std::size_t n_;
  std::vector<adt::OpId> ids_;
  std::vector<char> pure_accessor_;  ///< per record: declared kPureAccessor
  PrecedenceMatrix prec_;
  std::vector<std::uint64_t> placed_;
  std::vector<std::size_t> witness_;
  StateMemo memo_;
  ScratchStates scratch_;
  NodeCounter nodes_;
  std::unique_ptr<adt::ObjectState> initial_;
  CheckOptions options_;
};

}  // namespace

void require_arg_in_spec(const adt::DataType& type, const sim::OpRecord& r) {
  try {
    (void)type.initial_state()->apply(type.op_id(r.op), r.arg);
  } catch (const std::exception& e) {
    throw std::invalid_argument("record " + r.to_string() + ": argument outside the '" +
                                type.name() + "' spec (" + e.what() + ")");
  }
}

CheckResult search_permutation(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                               const std::function<bool(std::size_t, std::size_t)>& precedes,
                               const CheckOptions& options) {
  for (const auto& op : ops) {
    if (!op.complete()) {
      throw std::invalid_argument("permutation search: incomplete instance " + op.op);
    }
  }
  return Search(type, ops, precedes, options).run();
}

}  // namespace detail

std::string CheckResult::witness_to_string(const std::vector<sim::OpRecord>& ops) const {
  std::ostringstream os;
  for (std::size_t k = 0; k < witness.size(); ++k) {
    if (k > 0) os << " . ";
    os << ops[witness[k]].to_string();
  }
  return os.str();
}

}  // namespace lintime::lin
