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
       "duplicate written value (ambiguous read matching)",
       &monitor_register},
      {MonitorFamily::kQueue,
       adt::QueueType::kEnqueue,
       adt::QueueType::kDequeue,
       "duplicate enqueued value",
       &monitor_queue},
      {MonitorFamily::kStack,
       adt::StackType::kPush,
       adt::StackType::kPop,
       "duplicate pushed value",
       &monitor_stack},
      {MonitorFamily::kSet,
       adt::SetType::kAdd,
       adt::SetType::kContains,
       "value added more than once",
       &monitor_set},
      {MonitorFamily::kPriorityQueue,
       adt::PriorityQueueType::kInsert,
       adt::PriorityQueueType::kExtractMin,
       "duplicate inserted value",
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
