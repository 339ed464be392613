// EventRing tests: unit coverage of the calendar queue's ordering contract
// (time order, tie ranks, FIFO sequence, far staging, sparse jumps, the
// bucket-aliasing regression), a randomized differential test against a
// std::priority_queue reference, plus the record-equivalence suite: 60
// seeded workloads whose serialized records must match their pinned digests
// (tests/sim/golden/ring_records.txt, captured while the binary-heap
// scheduler the ring replaced agreed byte for byte) -- including tie
// storms, drift/drop extensions, and the timers_before_deliveries ablation
// in both directions, each at both record detail levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "adt/queue_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "record_pins.hpp"
#include "sim/event_ring.hpp"
#include "sim/world.hpp"

#ifndef LINTIME_SIM_GOLDEN_DIR
#define LINTIME_SIM_GOLDEN_DIR "tests/sim/golden"
#endif

namespace lintime::sim {
namespace {

RingEvent ev(Time when, int tie_rank, std::uint64_t seq) {
  RingEvent e;
  e.when = when;
  e.order = ring_order(tie_rank, seq);
  e.id = seq;  // so tests can identify events after popping
  return e;
}

TEST(EventRingTest, PopsInTimeOrder) {
  EventRing ring(EventRing::width_for(10.0));
  const std::vector<double> times = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0};
  std::uint64_t seq = 0;
  for (const double t : times) ring.push(ev(t, 0, seq++));
  double prev = -1;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_GT(e.when, prev);
    prev = e.when;
  }
}

TEST(EventRingTest, FifoAmongEqualTimes) {
  EventRing ring(EventRing::width_for(10.0));
  for (std::uint64_t s : {7u, 3u, 9u, 1u, 5u}) ring.push(ev(4.0, 0, s));
  std::uint64_t prev = 0;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_GT(e.id, prev);  // ascending seq = FIFO among ties
    prev = e.id;
  }
}

TEST(EventRingTest, TieRankDominatesSequence) {
  EventRing ring(EventRing::width_for(10.0));
  ring.push(ev(4.0, 1, 1));  // earlier seq, higher rank
  ring.push(ev(4.0, 0, 2));  // later seq, lower rank -- must pop first
  EXPECT_EQ(ring.pop().id, 2u);
  EXPECT_EQ(ring.pop().id, 1u);
}

TEST(EventRingTest, SparseScheduleJumpsEmptyEpochs) {
  // Events 10^6 time units apart: the ring must jump, not crawl epoch by
  // epoch (this test hangs if it crawls).
  EventRing ring(EventRing::width_for(10.0));
  for (int i = 0; i < 5; ++i) ring.push(ev(i * 1e6, 0, static_cast<std::uint64_t>(i)));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop().id, static_cast<std::uint64_t>(i));
  EXPECT_TRUE(ring.empty());
}

TEST(EventRingTest, FarEventsStageInCorrectOrder) {
  // A beyond-horizon event pushed FIRST must still pop after every
  // in-horizon event that precedes it in time.
  EventRing ring(1, 8);  // tiny ring: horizon = 8 ticks
  ring.push(ev(100.0 / kTickGrid, 0, 0));  // bucket 100, far
  for (int i = 1; i <= 9; ++i) ring.push(ev(i / kTickGrid, 0, static_cast<std::uint64_t>(i)));
  std::vector<std::uint64_t> popped;
  while (!ring.empty()) popped.push_back(ring.pop().id);
  EXPECT_EQ(popped, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}));
}

TEST(EventRingTest, BucketAliasingRegression) {
  // Regression: a staged event exactly B buckets ahead of the draining
  // bucket must NOT enter the slot the draining bucket still occupies (it
  // would pop a whole revolution early).  Buckets 1..9 on an 8-bucket ring
  // exercise the alias pair (1, 9).
  EventRing ring(1, 8);
  for (int i = 9; i >= 1; --i) ring.push(ev(i / kTickGrid, 0, static_cast<std::uint64_t>(i)));
  std::uint64_t prev = 0;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_EQ(e.id, prev + 1);
    prev = e.id;
  }
  EXPECT_EQ(prev, 9u);
}

TEST(EventRingTest, PushDuringDrainMergesInKeyOrder) {
  EventRing ring(EventRing::width_for(10.0));
  ring.push(ev(1.0, 0, 1));
  ring.push(ev(1.0, 0, 5));
  EXPECT_EQ(ring.pop().id, 1u);
  // Same time, seq between the popped and the pending event: pops next.
  ring.push(ev(1.0, 0, 3));
  // Same time, rank 1: pops after every rank-0 event.
  ring.push(ev(1.0, 1, 2));
  EXPECT_EQ(ring.pop().id, 3u);
  EXPECT_EQ(ring.pop().id, 5u);
  EXPECT_EQ(ring.pop().id, 2u);
  EXPECT_TRUE(ring.empty());
}

TEST(EventRingTest, PopEmptyThrows) {
  EventRing ring;
  EXPECT_THROW(ring.pop(), std::logic_error);
}

TEST(EventRingTest, RandomizedAgainstBinaryHeap) {
  // Differential check against the reference model of the event order: a
  // min-heap on (when, order).  Pushes and pops interleave exactly as the
  // World's dispatch loop interleaves them (including same-time pushes
  // during a pop epoch), and the two pop sequences must match event for
  // event.
  struct HeapGreater {
    bool operator()(const RingEvent& a, const RingEvent& b) const {
      return ring_event_less(b, a);
    }
  };
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    EventRing ring(EventRing::width_for(10.0));
    std::priority_queue<RingEvent, std::vector<RingEvent>, HeapGreater> heap;
    double now = 0;
    std::uint64_t seq = 0;
    int checked = 0;
    for (int round = 0; round < 2000; ++round) {
      const int pushes = static_cast<int>(rng() % 4);
      for (int i = 0; i < pushes; ++i) {
        // Monotone times (the World never schedules in the past), mixed
        // ranks, occasional far-future spikes and exact ties with `now`.
        const double jump = (rng() % 20 == 0) ? 5000.0 : 0.0;
        const double delta = static_cast<double>(rng() % 1000) / 100.0 + jump;
        const RingEvent e = ev(now + delta, static_cast<int>(rng() % 3), seq++);
        ring.push(e);
        heap.push(e);
      }
      if (!ring.empty() && rng() % 2 == 0) {
        const RingEvent r = ring.pop();
        const RingEvent h = heap.top();
        heap.pop();
        ASSERT_EQ(r.id, h.id) << "seed " << seed << " after " << checked << " pops";
        now = r.when;
        ++checked;
      }
    }
    while (!ring.empty()) {
      const RingEvent r = ring.pop();
      const RingEvent h = heap.top();
      heap.pop();
      ASSERT_EQ(r.id, h.id) << "seed " << seed << " drain after " << checked << " pops";
      ++checked;
    }
    EXPECT_TRUE(heap.empty()) << "seed " << seed;
    EXPECT_GT(checked, 1000) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Record equivalence: the ring's records against their pinned digests
// ---------------------------------------------------------------------------

const pins::RecordPins& ring_pins() {
  static const pins::RecordPins pins(std::string(LINTIME_SIM_GOLDEN_DIR) + "/ring_records.txt");
  return pins;
}

std::string ops_to_string(const RunRecord& record) {
  std::string out;
  for (const auto& op : record.ops) {
    out += op.to_string();
    out += '\n';
  }
  return out;
}

/// Runs one spec at both record detail levels, checks each record against
/// its pin, and asserts byte-identical ops arrays across the two runs (the
/// detail knob changes what is recorded, never what happens).  `make_spec`
/// is invoked once per run: stateful delay models draw from a sequential
/// RNG, so each run needs a freshly seeded instance.
void expect_pinned(const adt::DataType& type, const std::function<harness::RunSpec()>& make_spec,
                   const std::string& suite, std::uint64_t seed) {
  std::string ops[2];  // [detail]
  for (const auto detail : {RecordDetail::kFull, RecordDetail::kOpsOnly}) {
    harness::RunSpec spec = make_spec();
    spec.record_detail = detail;
    const auto run = harness::execute(type, spec);
    ring_pins().expect(suite, seed, detail, run.record);
    ops[detail == RecordDetail::kOpsOnly ? 1 : 0] = ops_to_string(run.record);
  }
  EXPECT_EQ(ops[0], ops[1]) << suite << " seed " << seed << " (ops across detail levels)";
}

TEST(SchedulerEquivalenceTest, SixtySeedsByteIdentical) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      const int n = 2 + static_cast<int>(seed % 4);  // 2..5 processes
      spec.params = ModelParams{n, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      spec.X = (seed % 3 == 0) ? (spec.params.d - spec.params.eps) / 2 : 0.0;
      spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(),
                                                         spec.params.d, seed);
      // Every third seed adds the model extensions (drift + loss); every
      // fourth skews the clocks.
      if (seed % 3 == 1) {
        spec.clock_rates.assign(static_cast<std::size_t>(n), 1.0);
        spec.clock_rates[0] = 1.01;
        spec.clock_rates[1] = 0.99;
        spec.drop_probability = 0.1;
        spec.drop_seed = seed * 13;
      }
      if (seed % 4 == 1) {
        for (int p = 0; p < n; ++p) spec.clock_offsets.push_back((p % 2 == 0) ? 0.4 : -0.4);
      }
      spec.scripts = harness::random_scripts(queue, n, 5, seed * 31);
      return spec;
    };
    expect_pinned(queue, make_spec, "sixty_seeds", seed);
  }
}

TEST(SchedulerEquivalenceTest, TieStormByteIdentical) {
  // Every process invokes at the SAME instants under constant delays:
  // maximal (when)-ties, so ordering is decided purely by tie rank and FIFO
  // sequence -- the part of the contract the ring must preserve exactly.
  adt::QueueType queue;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      spec.params = ModelParams{4, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      const auto scripts = harness::random_scripts(queue, 4, 6, seed);
      for (int i = 0; i < 6; ++i) {
        for (int p = 0; p < 4; ++p) {
          spec.calls.push_back(harness::Call{20.0 * i, p,
                                             scripts[static_cast<std::size_t>(p)][i].op,
                                             scripts[static_cast<std::size_t>(p)][i].arg});
        }
      }
      return spec;
    };
    expect_pinned(queue, make_spec, "tie_storm", seed);
  }
}

TEST(SchedulerEquivalenceTest, BroadcastTieStormByteIdentical) {
  // All six processes invoke MUTATORS at the same instants under the default
  // constant delay, so every epoch fans n*(n-1) broadcast deliveries out to
  // identical arrival times.  The shared-payload fan-out (one stored
  // payload, n-1 referencing entries) must keep the per-send delivery order
  // the pins were captured with -- at both record detail levels.
  adt::QueueType queue;
  for (const std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    const auto make_spec = [seed] {
      harness::RunSpec spec;
      spec.params = ModelParams{6, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      std::mt19937_64 rng(seed);
      for (int i = 0; i < 5; ++i) {
        for (int p = 0; p < 6; ++p) {
          spec.calls.push_back(harness::Call{
              30.0 * i, p, "enqueue", adt::Value{static_cast<std::int64_t>(rng() % 100)}});
        }
      }
      return spec;
    };
    expect_pinned(queue, make_spec, "broadcast_tie_storm", seed);
  }
}

TEST(SchedulerEquivalenceTest, TimersBeforeDeliveriesBothWays) {
  // The tie-rank ablation flips which kind wins equal-time ties; records
  // must match their pins under BOTH settings.  Uniform random delays never
  // produce an exact delivery/timer tie, so seeds 11, 22 and 33 pin the same
  // records under both settings; "seed" 0 is the Lemma 5 boundary schedule
  // of tests/core/ablation_test.cpp, whose records must differ.
  adt::QueueType queue;
  const auto params = [] {
    ModelParams p{3, 10.0, 2.0, 0.0};
    p.eps = p.optimal_eps();
    return p;
  }();
  std::string boundary_digest[2][2];  // [timers_first][detail]
  for (const bool timers_first : {false, true}) {
    const std::string suite = timers_first ? "timers_first" : "deliveries_first";
    for (const auto detail : {RecordDetail::kFull, RecordDetail::kOpsOnly}) {
      for (const std::uint64_t seed : {11u, 22u, 33u}) {
        WorldConfig config;
        config.type = nullptr;
        config.params = params;
        config.timers_before_deliveries = timers_first;
        config.record_detail = detail;
        config.delays = std::make_shared<UniformRandomDelay>(params.min_delay(), params.d, seed);
        World world(config, [&](ProcId) {
          return std::make_unique<core::AlgorithmOneProcess>(
              queue, core::TimingPolicy::standard(params, 0.0));
        });
        for (int i = 0; i < 4; ++i) {
          for (int p = 0; p < 3; ++p) {
            world.invoke_at(25.0 * i, p, i % 2 == 0 ? "enqueue" : "dequeue",
                            adt::Value{i * 3 + p});
          }
        }
        world.run();
        ring_pins().expect(suite, seed, detail, world.record());
      }

      // Dyadic constants make the tie exact: p0's announcement reaches p1
      // at 61.5, the instant p1's own execute timer fires.
      WorldConfig config;
      config.params = ModelParams{3, 10.0, 2.0, 1.5};
      config.clock_offsets = {-1.5, 0.0, 0.0};
      config.timers_before_deliveries = timers_first;
      config.record_detail = detail;
      World world(config, [&](ProcId) {
        return std::make_unique<core::AlgorithmOneProcess>(
            queue, core::TimingPolicy::standard(config.params, 0.0));
      });
      world.invoke_at(0.0, 2, "enqueue", adt::Value{7});
      world.invoke_at(50.0, 1, "dequeue", adt::Value::nil());
      world.invoke_at(51.5, 0, "dequeue", adt::Value::nil());
      world.run();
      ring_pins().expect(suite, 0, detail, world.record());
      boundary_digest[timers_first ? 1 : 0][detail == RecordDetail::kFull ? 0 : 1] =
          pins::record_digest(world.record());
    }
  }
  EXPECT_NE(boundary_digest[0][0], boundary_digest[1][0]);
  EXPECT_NE(boundary_digest[0][1], boundary_digest[1][1]);
}

TEST(SchedulerEquivalenceTest, OpsOnlyRecordingKeepsOpsIdentical) {
  // kOpsOnly drops steps and messages but the ops array must be identical
  // byte for byte with a full-detail run.
  adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = ModelParams{4, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, 9);
  spec.scripts = harness::random_scripts(queue, 4, 6, 77);
  const auto full = harness::execute(queue, spec);
  // Fresh delay model: UniformRandomDelay draws sequentially per run.
  spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, 9);
  spec.record_detail = RecordDetail::kOpsOnly;
  const auto lean = harness::execute(queue, spec);

  EXPECT_TRUE(lean.record.steps.empty());
  EXPECT_TRUE(lean.record.messages.empty());
  ASSERT_EQ(full.record.ops.size(), lean.record.ops.size());
  for (std::size_t i = 0; i < full.record.ops.size(); ++i) {
    EXPECT_EQ(full.record.ops[i].to_string(), lean.record.ops[i].to_string()) << "op " << i;
  }
}

}  // namespace
}  // namespace lintime::sim
