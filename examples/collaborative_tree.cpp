// Collaborative document outline: the paper's rooted-tree data type used as
// a shared outline edited concurrently from three sites.
//
// Site 0 builds the skeleton, site 1 re-parents a section (move), site 2
// queries depths while edits are in flight.  All replicas converge to the
// same tree and the run is machine-checked linearizable, despite skewed
// clocks and adversarial (maximal) message delays.
//
// Build & run:  ./build/examples/collaborative_tree

#include <cstdio>

#include "adt/tree_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"

int main() {
  using lintime::adt::TreeType;
  using lintime::adt::Value;
  namespace harness = lintime::harness;

  lintime::sim::ModelParams params{3, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  harness::RunSpec spec;
  spec.params = params;
  spec.X = 0.0;  // favour fast queries: |depth| = d, |insert/move| = eps
  spec.delays = std::make_shared<lintime::sim::ConstantDelay>(params.d);  // worst case
  spec.clock_offsets = {params.eps / 2, -params.eps / 2, 0.0};            // max skew

  // Node ids: 1 = "Introduction", 2 = "Methods", 3 = "Results",
  //           4 = "Appendix" (moved under Methods mid-session).
  spec.scripts = {
      {
          {"insert", TreeType::edge(0, 1)},
          {"insert", TreeType::edge(0, 2)},
          {"insert", TreeType::edge(0, 3)},
          {"insert", TreeType::edge(0, 4)},
      },
      {
          {"move", TreeType::edge(2, 4)},  // Appendix -> under Methods
          {"depth", Value{4}},
          {"remove", Value{3}},            // drop "Results"
      },
      {
          {"depth", Value{1}},
          {"depth", Value{4}},
          {"parent", Value{4}},
          {"depth", Value{3}},
      },
  };

  lintime::adt::TreeType tree;
  const auto result = harness::execute(tree, spec);

  std::printf("edit session:\n");
  for (const auto& op : result.record.ops) {
    std::printf("  %s\n", op.to_string().c_str());
  }

  std::printf("\nlatencies: mutators max %.2f (bound eps = %.2f), queries max %.2f "
              "(bound d-X = %.2f)\n",
              std::max(result.stats_for("insert").max, result.stats_for("move").max),
              params.eps, result.stats_for("depth").max, params.d - spec.X);

  bool converged = true;
  for (const auto& s : result.final_states) converged &= (s == result.final_states[0]);
  std::printf("\nfinal outline (all %s): %s\n", converged ? "replicas agree" : "DIVERGED",
              result.final_states[0].c_str());

  const bool ok =
      lintime::lin::check(tree, result.record).result.linearizable && converged;
  std::printf("linearizable: %s\n", ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
