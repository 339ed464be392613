#pragma once
// Sequential-consistency checker.
//
// The paper's introduction contrasts linearizability with the weaker
// sequential consistency: a run is sequentially consistent iff there is a
// legal permutation of its operation instances that preserves each process's
// *program order* -- but, unlike linearizability, need not respect real-time
// order across processes (Lipton-Sandberg / Attiya-Welch).  This checker
// decides that condition with the same memoized DFS as the linearizability
// checker, only with the precedence relation weakened to program order.
//
// Having both checkers lets the benches demonstrate the *inherent gap*
// between the two conditions: the fast-SC baseline produces runs that pass
// this checker while failing linearizability.

#include <vector>

#include "adt/data_type.hpp"
#include "lin/check.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin {

/// Checks sequential consistency of a complete history.  Same input contract
/// as lin::check: throws std::invalid_argument on an incomplete record or an
/// argument the type's spec rejects.
[[nodiscard]] CheckResult check_sequential_consistency(const adt::DataType& type,
                                                       const std::vector<sim::OpRecord>& ops);

[[nodiscard]] CheckResult check_sequential_consistency(const adt::DataType& type,
                                                       const sim::RunRecord& record);

}  // namespace lintime::lin
