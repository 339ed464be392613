#pragma once
// Linearizability checker for NON-DETERMINISTIC data types (the relaxation
// the paper's Section 6.2 proposes).  The search is the same memoized
// Wing-Gong DFS, except that placing an instance branches over every legal
// outcome whose return value matches the recorded one -- the witness is then
// a permutation PLUS a resolution of each non-deterministic choice.

#include <vector>

#include "adt/nondet.hpp"
#include "lin/check.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin {

/// Checks linearizability of `ops` against the non-deterministic spec.
[[nodiscard]] CheckResult check_linearizability_nondet(const adt::NondetDataType& type,
                                                       const std::vector<sim::OpRecord>& ops);

[[nodiscard]] CheckResult check_linearizability_nondet(const adt::NondetDataType& type,
                                                       const sim::RunRecord& record);

}  // namespace lintime::lin
