// Seeded differential testing: the fast-path monitors and the general
// Wing-Gong checker must agree on every generated history -- positives by
// construction, forced negatives, and return-swapped mutations -- with the
// memo both on and off, and with the general checker's witnesses validated
// by replay.

#include <gtest/gtest.h>

#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "lin/check.hpp"
#include "lin/fast/classifier.hpp"
#include "lin/fast/history_gen.hpp"
#include "lin/search_detail.hpp"

namespace lintime::lin {
namespace {

constexpr int kSeedsPerType = 60;
constexpr std::size_t kOpsPerHistory = 40;  // width <= procs keeps the general search cheap

/// A witness must be a permutation that respects the checkers' real-time
/// precedence and replays legally against the type's state machine.
void validate_witness(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                      const std::vector<std::size_t>& witness) {
  ASSERT_EQ(witness.size(), ops.size());
  for (std::size_t p = 0; p < witness.size(); ++p) {
    for (std::size_t q = p + 1; q < witness.size(); ++q) {
      EXPECT_FALSE(detail::realtime_precedes(ops[witness[q]], ops[witness[p]]))
          << "witness violates real-time order at positions " << p << "," << q;
    }
  }
  auto state = type.initial_state();
  for (const auto idx : witness) {
    EXPECT_EQ(state->apply(ops[idx].op, ops[idx].arg), ops[idx].ret)
        << "witness replay diverges at op uid " << ops[idx].uid;
  }
}

void run_differential(const adt::DataType& type) {
  for (int seed = 1; seed <= kSeedsPerType; ++seed) {
    fast::GenOptions gen;
    gen.procs = 3;
    gen.total_ops = kOpsPerHistory;
    gen.seed = static_cast<std::uint64_t>(seed);
    auto ops = fast::generate_unambiguous(type, gen);

    // Positive: linearizable by construction, and classifier-eligible.
    const auto cls = fast::classify(type, ops);
    ASSERT_TRUE(cls.eligible) << type.name() << " seed " << seed << ": " << cls.reason;

    const auto fast_report = check(type, ops);
    ASSERT_EQ(fast_report.stats.route, CheckRoute::kFastPath);
    EXPECT_TRUE(fast_report.result.linearizable) << type.name() << " seed " << seed;

    const CheckOptions general_only{.allow_fast_path = false};
    const auto general = check(type, ops, general_only);
    ASSERT_TRUE(general.result.linearizable) << type.name() << " seed " << seed;
    validate_witness(type, ops, general.result.witness);

    // Memo off must not change the verdict (every third seed: it is the
    // slow configuration).
    if (seed % 3 == 0) {
      const CheckOptions no_memo{.allow_fast_path = false, .memoize = false};
      const auto unmemoized = check(type, ops, no_memo);
      EXPECT_TRUE(unmemoized.result.linearizable);
      EXPECT_EQ(unmemoized.stats.memo_hits, 0u);
    }

    // Forced negative: an impossible observation appended; both sides must
    // reject, and the fallback side must reject without a witness.
    auto bad = ops;
    fast::append_impossible_observation(type, bad);
    ASSERT_TRUE(fast::classify(type, bad).eligible);
    const auto fast_bad = check(type, bad);
    ASSERT_EQ(fast_bad.stats.route, CheckRoute::kFastPath);
    EXPECT_FALSE(fast_bad.result.linearizable) << type.name() << " seed " << seed;
    const auto general_bad = check(type, bad, general_only);
    EXPECT_FALSE(general_bad.result.linearizable) << type.name() << " seed " << seed;
    EXPECT_TRUE(general_bad.result.witness.empty());

    // Return-swap mutation: verdict unknown a priori, but the two checkers
    // must still agree on it.
    auto swapped = ops;
    if (fast::swap_two_returns(swapped, gen.seed * 7919)) {
      const auto cls_swapped = fast::classify(type, swapped);
      if (cls_swapped.eligible) {
        const auto fast_swapped = check(type, swapped);
        const auto general_swapped = check(type, swapped, general_only);
        EXPECT_EQ(fast_swapped.result.linearizable, general_swapped.result.linearizable)
            << type.name() << " seed " << seed << ": fast/general disagree after return swap";
        if (general_swapped.result.linearizable) {
          validate_witness(type, swapped, general_swapped.result.witness);
        }
      }
    }
  }
}

TEST(DifferentialTest, Register) { run_differential(adt::RegisterType{}); }
TEST(DifferentialTest, RmwRegisterRestricted) { run_differential(adt::RmwRegisterType{}); }
TEST(DifferentialTest, Queue) { run_differential(adt::QueueType{}); }
TEST(DifferentialTest, Stack) { run_differential(adt::StackType{}); }
TEST(DifferentialTest, Set) { run_differential(adt::SetType{}); }
TEST(DifferentialTest, PQueue) { run_differential(adt::PriorityQueueType{}); }

}  // namespace
}  // namespace lintime::lin
