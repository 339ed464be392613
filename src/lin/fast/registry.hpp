#pragma once
// MonitorRegistry: the dispatch table from adt::MonitorFamily to the
// family's log-linear monitor.  One immutable process-wide instance; the
// classifier reads each family's operation names from it and hands the
// matching entry to lin::check() with the ranked view.

#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "lin/fast/classifier.hpp"

namespace lintime::lin::fast {

/// A family monitor: exact verdict for a classifier-eligible history's
/// ranked view (see monitors.hpp).
using MonitorFn = bool (*)(const HistoryView&);

struct MonitorEntry {
  adt::MonitorFamily family = adt::MonitorFamily::kNone;
  /// The two operation names the monitor understands; a history using any
  /// other operation of the type falls back to the general checker.
  std::string mutator;   ///< write / enqueue / push / add / insert
  std::string accessor;  ///< read / dequeue / pop / contains / extract_min
  /// Fallback reason when two mutators carry the same value.
  std::string duplicate_reason;
  MonitorFn run = nullptr;
};

class MonitorRegistry {
 public:
  /// The monitor for `family`, or nullptr when none is registered
  /// (kNone and any future family without a monitor).
  [[nodiscard]] const MonitorEntry* find(adt::MonitorFamily family) const;

  /// The process-wide registry (immutable after construction).
  [[nodiscard]] static const MonitorRegistry& instance();

 private:
  MonitorRegistry();
  std::vector<MonitorEntry> entries_;
};

}  // namespace lintime::lin::fast
