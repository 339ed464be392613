#include "lin/fast/classifier.hpp"

#include <algorithm>
#include <cstdint>

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
bool strictly_gapped_per_process(const std::vector<sim::OpRecord>& ops) {
  // Sorted as a contiguous key vector: the comparator never touches the
  // (much larger) records.
  struct Interval {
    sim::ProcId proc;
    sim::Time invoke;
    std::uint64_t uid;
    sim::Time response;
  };
  std::vector<Interval> order;
  order.reserve(ops.size());
  for (const auto& r : ops) order.push_back({r.proc, r.invoke_real, r.uid, r.response_real});
  std::sort(order.begin(), order.end(), [](const Interval& a, const Interval& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    if (a.invoke != b.invoke) return a.invoke < b.invoke;
    return a.uid < b.uid;
  });
  for (std::size_t k = 1; k < order.size(); ++k) {
    const auto& prev = order[k - 1];
    const auto& next = order[k];
    if (prev.proc == next.proc && !(prev.response < next.invoke)) return false;
  }
  return true;
}

/// The family's "distinct mutator" condition: the args of `mutator`-named
/// operations are pairwise distinct.  Sorts pointers to the args: O(n log n)
/// with no value copied and no per-value allocation.
bool mutator_args_distinct(const std::vector<sim::OpRecord>& ops, const std::string& mutator) {
  std::vector<const adt::Value*> args;
  for (const auto& r : ops) {
    if (r.op == mutator) args.push_back(&r.arg);
  }
  const auto by_value = [](const adt::Value* a, const adt::Value* b) { return *a < *b; };
  std::sort(args.begin(), args.end(), by_value);
  // Sorted, so neighbours are duplicates unless the first is strictly less.
  return std::adjacent_find(args.begin(), args.end(), [&by_value](const auto* a, const auto* b) {
           return !by_value(a, b);
         }) == args.end();
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
  for (const auto& r : ops) {
    if (!r.complete()) {
      return fallback(family, "incomplete operation record '" + r.op + "'");
    }
  }
  for (const auto& r : ops) {
    const bool supported = std::find(entry->supported_ops.begin(), entry->supported_ops.end(),
                                     r.op) != entry->supported_ops.end();
    if (!supported) {
      return fallback(family, "operation '" + r.op + "' is outside the " +
                                  std::string(adt::to_string(family)) +
                                  " monitor's supported set");
    }
  }
  if (!strictly_gapped_per_process(ops)) {
    return fallback(family, "zero-gap or overlapping intervals within one process");
  }
  // Family-specific distinct-value conditions.  supported_ops[0] is by
  // convention the distinct-args mutator for every family but register
  // (see registry.cpp); spelled out per family for clarity.
  switch (family) {
    case adt::MonitorFamily::kRegister: {
      if (!mutator_args_distinct(ops, adt::RegisterType::kWrite)) {
        return fallback(family, "duplicate written value (ambiguous read matching)");
      }
      // A write of the initial value would make reads of it ambiguous
      // between the initial cluster and the write's cluster.
      const auto initial = type.initial_state();
      const adt::Value v0 = initial->apply(adt::RegisterType::kRead, adt::Value::nil());
      for (const auto& r : ops) {
        if (r.op == adt::RegisterType::kWrite && r.arg == v0) {
          return fallback(family, "write of the initial value " + v0.to_string() +
                                      " (ambiguous with the initial cluster)");
        }
      }
      break;
    }
    case adt::MonitorFamily::kQueue:
      if (!mutator_args_distinct(ops, entry->supported_ops[0])) {
        return fallback(family, "duplicate enqueued value");
      }
      break;
    case adt::MonitorFamily::kStack:
      if (!mutator_args_distinct(ops, entry->supported_ops[0])) {
        return fallback(family, "duplicate pushed value");
      }
      break;
    case adt::MonitorFamily::kSet:
      if (!mutator_args_distinct(ops, entry->supported_ops[0])) {
        return fallback(family, "value added more than once");
      }
      break;
    case adt::MonitorFamily::kPriorityQueue:
      if (!mutator_args_distinct(ops, entry->supported_ops[0])) {
        return fallback(family, "duplicate inserted value");
      }
      break;
    case adt::MonitorFamily::kNone:
      break;  // unreachable: handled above
  }
  Classification c;
  c.eligible = true;
  c.family = family;
  return c;
}

}  // namespace lintime::lin::fast
