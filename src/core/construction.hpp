#pragma once
// Construction 1 (Section 5.2): the paper's explicit linearization of an
// Algorithm 1 run, built from the replicas' execution logs:
//
//   1. all mutators in increasing timestamp order;
//   2. each pure accessor inserted immediately after the last mutator its
//      invoking replica executed before the accessor returned;
//   3. adjacent pure accessors sorted by timestamp.
//
// This module rebuilds that permutation from the recorded run and the
// per-replica logs, giving an *independent* validator for Algorithm 1:
// instead of searching for some linearization (lin::check's general route),
// it checks that the paper's constructed one is legal (Lemma 7) and respects
// real-time order (Lemma 6), and that every replica executed the mutators in
// the same timestamp order (Lemma 5).

#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/algorithm_one.hpp"
#include "sim/run_record.hpp"

namespace lintime::core {

struct ConstructionResult {
  bool mutator_order_agrees = false;  ///< Lemma 5: all replicas executed the
                                      ///< same mutator sequence (by timestamp)
  bool legal = false;                 ///< Lemma 7: the constructed pi is legal
  bool respects_real_time = false;    ///< Lemma 6: non-overlapping order kept
  adt::Sequence pi;                   ///< the constructed permutation
  std::string details;

  [[nodiscard]] bool valid() const {
    return mutator_order_agrees && legal && respects_real_time;
  }
};

/// Builds and validates Construction 1 for a completed run.  `replicas` are
/// the run's AlgorithmOneProcess instances in process-id order; `record` is
/// the world's run record (used for the real-time check).
[[nodiscard]] ConstructionResult build_construction(
    const adt::DataType& type, const std::vector<const AlgorithmOneProcess*>& replicas,
    const sim::RunRecord& record);

}  // namespace lintime::core
