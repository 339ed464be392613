#include "lin/fast/classifier.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "adt/register_type.hpp"
#include "lin/fast/registry.hpp"

namespace lintime::lin::fast {

namespace {

Classification fallback(adt::MonitorFamily family, std::string reason) {
  Classification c;
  c.family = family;
  c.reason = std::move(reason);
  return c;
}

/// Operations of one process must have strictly-gapped intervals
/// (prev.response < next.invoke); then interval order subsumes program
/// order and the monitors need only the former.  Zero-gap boundaries are
/// exactly the case the general checker's uid tiebreak exists for.
///
/// Groups the operations by process with a counting sort (record order kept
/// within a process) and walks each process in invoke order; a process
/// whose records are already in invoke order -- every recorded run's -- is
/// not sorted.  Two operations of one process with equal invoke times fail
/// whichever comes first (its response is at least the shared invoke), so
/// no uid tiebreak is needed.
bool strictly_gapped_per_process(const std::vector<ViewOp>& ops, sim::ProcId lo_proc,
                                 sim::ProcId hi_proc) {
  // One bucket per id in [lo_proc, hi_proc]; ids spread wider than the
  // history has records go through a sorted table of the distinct ids.
  const auto span = static_cast<std::uint64_t>(static_cast<std::int64_t>(hi_proc) - lo_proc) + 1;
  const bool dense = span <= ops.size();
  std::vector<sim::ProcId> ids;
  if (!dense) {
    ids.reserve(ops.size());
    for (const auto& op : ops) ids.push_back(op.proc);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  const auto bucket = [&](sim::ProcId p) {
    if (dense) return static_cast<std::size_t>(static_cast<std::int64_t>(p) - lo_proc);
    return static_cast<std::size_t>(std::lower_bound(ids.begin(), ids.end(), p) - ids.begin());
  };
  const std::size_t buckets = dense ? static_cast<std::size_t>(span) : ids.size();

  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const auto& op : ops) ++start[bucket(op.proc) + 1];
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  std::vector<std::uint32_t> order(ops.size());
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < ops.size(); ++i) order[cursor[bucket(ops[i].proc)]++] = i;

  const auto by_invoke = [&ops](std::uint32_t a, std::uint32_t b) {
    return ops[a].invoke < ops[b].invoke;
  };
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto first = order.begin() + start[b];
    const auto last = order.begin() + start[b + 1];
    if (!std::is_sorted(first, last, by_invoke)) std::sort(first, last, by_invoke);
    for (auto k = first; k != last && k + 1 != last; ++k) {
      if (!(ops[*k].response < ops[*(k + 1)].invoke)) return false;
    }
  }
  return true;
}

/// Sort key of one ranked value: its kind's place in adt::Value order and,
/// for an int, the int itself.  Ints -- the values of every generated and
/// simulated history -- rank without touching the variant again; strings
/// and vectors break ties with adt::Value::operator<.
struct RankKey {
  std::int64_t payload = 0;
  std::uint32_t slot = 0;  ///< view index, or kInitialSlot
  int kind = 0;
};

constexpr std::uint32_t kInitialSlot = std::numeric_limits<std::uint32_t>::max();
constexpr int kIntKind = 1;  // adt::Value::kind_order() of an int

RankKey key_of(const adt::Value& v, std::uint32_t slot) {
  RankKey k;
  k.kind = v.kind_order();
  if (v.is_int()) k.payload = v.as_int();
  k.slot = slot;
  return k;
}

}  // namespace

Classification classify(const adt::DataType& type, const std::vector<sim::OpRecord>& ops) {
  const adt::MonitorFamily family = type.monitor_family();
  if (family == adt::MonitorFamily::kNone) {
    return fallback(family, "type '" + type.name() + "' declares no monitor family");
  }
  const MonitorEntry* entry = MonitorRegistry::instance().find(family);
  if (entry == nullptr) {
    return fallback(family, std::string("no monitor registered for family '") +
                                adt::to_string(family) + "'");
  }
  if (ops.empty()) {
    return fallback(family, "empty history (general checker is trivial)");
  }
  // One pass over the records builds the view and its rank keys.  The
  // cheap declines -- an incomplete record, an unsupported operation -- come
  // out of the same pass, before any value is ranked; an incomplete record
  // anywhere outranks an unsupported one, and the first of each is named.
  const bool accessor_keys_arg = family == adt::MonitorFamily::kSet;  // contains(v)
  const bool nil_is_empty = family != adt::MonitorFamily::kRegister;  // a read's nil is a value
  HistoryView view;
  view.ops.reserve(ops.size());
  std::vector<RankKey> keys;
  keys.reserve(ops.size() + 1);
  sim::ProcId lo_proc = std::numeric_limits<sim::ProcId>::max();
  sim::ProcId hi_proc = std::numeric_limits<sim::ProcId>::min();
  const sim::OpRecord* unsupported = nullptr;
  for (const sim::OpRecord& r : ops) {
    if (!r.complete()) {
      return fallback(family, "incomplete operation record '" + r.op + "'");
    }
    if (unsupported != nullptr) continue;
    const auto slot = static_cast<std::uint32_t>(view.ops.size());
    ViewOp v;
    v.invoke = r.invoke_real;
    v.response = r.response_real;
    v.proc = r.proc;
    if (r.op == entry->mutator) {
      v.kind = OpKind::kMutator;
      if (!r.ret.is_nil()) view.impossible_return = true;
      keys.push_back(key_of(r.arg, slot));
    } else if (r.op != entry->accessor) {
      unsupported = &r;
      continue;
    } else if (accessor_keys_arg) {
      const bool bit = r.ret.is_int() && (r.ret.as_int() == 0 || r.ret.as_int() == 1);
      if (!bit) view.impossible_return = true;
      v.kind = bit && r.ret.as_int() == 1 ? OpKind::kAccessor : OpKind::kEmpty;
      keys.push_back(key_of(r.arg, slot));
    } else if (nil_is_empty && r.ret.is_nil()) {
      v.kind = OpKind::kEmpty;
    } else {
      v.kind = OpKind::kAccessor;
      keys.push_back(key_of(r.ret, slot));
    }
    view.ops.push_back(v);
    lo_proc = std::min(lo_proc, r.proc);
    hi_proc = std::max(hi_proc, r.proc);
  }
  if (unsupported != nullptr) {
    return fallback(family, "operation '" + unsupported->op + "' is outside the " +
                                std::string(adt::to_string(family)) +
                                " monitor's supported set");
  }
  if (!strictly_gapped_per_process(view.ops, lo_proc, hi_proc)) {
    return fallback(family, "zero-gap or overlapping intervals within one process");
  }

  // Dense ranks from one sort.  The register's initial value is ranked
  // with the rest, so its reads find their block by rank too.
  adt::Value v0;
  if (family == adt::MonitorFamily::kRegister) {
    v0 = type.initial_state()->apply(adt::RegisterType::kRead, adt::Value::nil());
    keys.push_back(key_of(v0, kInitialSlot));
  }
  // Every record is in the view by now, so a slot is also a record index.
  const auto value_at = [&](std::uint32_t slot) -> const adt::Value& {
    if (slot == kInitialSlot) return v0;
    const bool keyed_by_arg = accessor_keys_arg || view.ops[slot].kind == OpKind::kMutator;
    return keyed_by_arg ? ops[slot].arg : ops[slot].ret;
  };
  const auto less = [&value_at](const RankKey& a, const RankKey& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.payload != b.payload) return a.payload < b.payload;
    return a.kind > kIntKind && value_at(a.slot) < value_at(b.slot);
  };
  std::sort(keys.begin(), keys.end(), less);
  std::uint32_t rank = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k > 0 && less(keys[k - 1], keys[k])) ++rank;  // sorted: differs iff less
    if (keys[k].slot == kInitialSlot) {
      view.initial_rank = rank;
    } else {
      view.ops[keys[k].slot].rank = rank;
    }
  }
  view.num_ranks = keys.empty() ? 0 : rank + 1;

  // The family's distinct-mutator condition, then (registers) no write of
  // the initial value: it would make reads of it ambiguous between the
  // initial block and the write's block.
  const bool is_register = family == adt::MonitorFamily::kRegister;
  std::vector<char> mutated(view.num_ranks, 0);
  bool writes_initial = false;
  for (const ViewOp& v : view.ops) {
    if (v.kind != OpKind::kMutator) continue;
    if (mutated[v.rank] != 0) return fallback(family, entry->duplicate_reason);
    mutated[v.rank] = 1;
    if (is_register && v.rank == view.initial_rank) writes_initial = true;
  }
  if (writes_initial) {
    return fallback(family, "write of the initial value " + v0.to_string() +
                                " (ambiguous with the initial cluster)");
  }

  Classification c;
  c.eligible = true;
  c.family = family;
  c.monitor = entry;
  c.view = std::move(view);
  return c;
}

}  // namespace lintime::lin::fast
