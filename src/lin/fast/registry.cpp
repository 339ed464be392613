#include "lin/fast/registry.hpp"

#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "lin/fast/monitors.hpp"

namespace lintime::lin::fast {

MonitorRegistry::MonitorRegistry() {
  using adt::MonitorFamily;
  entries_ = {
      {MonitorFamily::kRegister,
       adt::RegisterType::kWrite,
       adt::RegisterType::kRead,
       "distinct written values, none equal to the initial value",
       "duplicate written value (ambiguous read matching)",
       "O(n log n)",
       &monitor_register},
      {MonitorFamily::kQueue,
       adt::QueueType::kEnqueue,
       adt::QueueType::kDequeue,
       "distinct enqueued values",
       "duplicate enqueued value",
       "O(n log n)",
       &monitor_queue},
      {MonitorFamily::kStack,
       adt::StackType::kPush,
       adt::StackType::kPop,
       "distinct pushed values",
       "duplicate pushed value",
       "O(n log n)",
       &monitor_stack},
      {MonitorFamily::kSet,
       adt::SetType::kAdd,
       adt::SetType::kContains,
       "each value added at most once",
       "value added more than once",
       "O(n log n)",
       &monitor_set},
      {MonitorFamily::kPriorityQueue,
       adt::PriorityQueueType::kInsert,
       adt::PriorityQueueType::kExtractMin,
       "distinct inserted values",
       "duplicate inserted value",
       "O(n log n)",
       &monitor_pqueue},
  };
}

const MonitorEntry* MonitorRegistry::find(adt::MonitorFamily family) const {
  for (const auto& e : entries_) {
    if (e.family == family) return &e;
  }
  return nullptr;
}

const MonitorRegistry& MonitorRegistry::instance() {
  static const MonitorRegistry kRegistry;
  return kRegistry;
}

}  // namespace lintime::lin::fast
