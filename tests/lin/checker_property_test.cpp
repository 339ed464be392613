// Property tests for the checkers themselves: the memoized search agrees
// with the non-memoized reference on random histories, witnesses replay
// correctly, and the implication lattice (linearizable => sequentially
// consistent) holds on every history we can generate.

#include <gtest/gtest.h>

#include <random>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "harness/runner.hpp"
#include "lin/check.hpp"
#include "lin/sc_checker.hpp"

namespace lintime::lin {
namespace {

using adt::Value;
using sim::OpRecord;

/// A random (often non-linearizable) history: random ops, args, return
/// values and intervals across `procs` processes.
std::vector<OpRecord> random_history(std::uint64_t seed, int procs, int per_proc) {
  std::mt19937_64 rng(seed);
  std::vector<OpRecord> out;
  const char* ops[] = {"enqueue", "dequeue", "peek"};
  std::uint64_t uid = 1;
  for (int p = 0; p < procs; ++p) {
    double clock = 0;
    for (int i = 0; i < per_proc; ++i) {
      OpRecord op;
      op.proc = p;
      op.uid = uid++;
      op.op = ops[rng() % 3];
      op.arg = op.op == std::string("enqueue") ? Value{static_cast<int>(rng() % 3)}
                                               : Value::nil();
      // Return values biased toward plausible ones (nil or small ints).
      op.ret = op.op == std::string("enqueue")
                   ? Value::nil()
                   : (rng() % 2 == 0 ? Value::nil() : Value{static_cast<int>(rng() % 3)});
      op.invoke_real = clock + static_cast<double>(rng() % 5);
      op.response_real = op.invoke_real + 1 + static_cast<double>(rng() % 5);
      clock = op.response_real;
      out.push_back(op);
    }
  }
  return out;
}

TEST(CheckerPropertyTest, MemoizedAgreesWithReferenceOnRandomHistories) {
  adt::QueueType queue;
  int linearizable_count = 0;
  int total = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const int per_proc : {1, 2, 3}) {
      const auto h = random_history(seed * 10 + per_proc, 3, per_proc);
      const auto with = check(queue, h, {.allow_fast_path = false, .memoize = true}).result;
      const auto without = check(queue, h, {.allow_fast_path = false, .memoize = false}).result;
      EXPECT_EQ(with.linearizable, without.linearizable) << "seed " << seed;
      if (with.linearizable) ++linearizable_count;
      ++total;
    }
  }
  // The generator must produce both outcomes, or the property is vacuous.
  EXPECT_GT(linearizable_count, 3);
  EXPECT_LT(linearizable_count, total - 3);
}

TEST(CheckerPropertyTest, WitnessReplaysLegallyAndRespectsPrecedence) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto h = random_history(seed, 3, 3);
    const auto result = check(queue, h, {.allow_fast_path = false}).result;
    if (!result.linearizable) continue;
    ASSERT_EQ(result.witness.size(), h.size());

    // Legal replay.
    auto state = queue.make_initial_state();
    for (const auto idx : result.witness) {
      EXPECT_EQ(state->apply(h[idx].op, h[idx].arg), h[idx].ret) << "seed " << seed;
    }
    // Precedence respected.
    for (std::size_t a = 0; a < result.witness.size(); ++a) {
      for (std::size_t b = a + 1; b < result.witness.size(); ++b) {
        const auto& first = h[result.witness[a]];
        const auto& second = h[result.witness[b]];
        EXPECT_FALSE(second.response_real < first.invoke_real &&
                     second.proc != first.proc)
            << "real-time inversion, seed " << seed;
      }
    }
  }
}

TEST(CheckerPropertyTest, LinearizableImpliesSequentiallyConsistent) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto h = random_history(seed, 3, 3);
    if (check(queue, h).result.linearizable) {
      EXPECT_TRUE(check_sequential_consistency(queue, h).linearizable) << "seed " << seed;
    }
  }
}

TEST(CheckerPropertyTest, AlgorithmRunsAlwaysAgreeAcrossCheckerModes) {
  adt::RegisterType reg;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    harness::RunSpec spec;
    spec.params = sim::ModelParams{3, 10.0, 2.0, 1.0};
    spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, seed);
    spec.scripts = harness::random_scripts(reg, 3, 4, seed * 3);
    const auto record = harness::execute(reg, spec).record;
    for (const bool memoize : {true, false}) {
      const CheckOptions search{.allow_fast_path = false, .memoize = memoize};
      EXPECT_TRUE(check(reg, record.ops, search).result.linearizable);
    }
    EXPECT_TRUE(check_sequential_consistency(reg, record).linearizable);
  }
}

TEST(CheckerPropertyTest, NodesExpandedNeverLargerWithMemo) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto h = random_history(seed, 3, 3);
    const auto with = check(queue, h, {.allow_fast_path = false, .memoize = true}).result;
    const auto without = check(queue, h, {.allow_fast_path = false, .memoize = false}).result;
    EXPECT_LE(with.nodes_expanded, without.nodes_expanded) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lintime::lin
