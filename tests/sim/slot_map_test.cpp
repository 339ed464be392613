// Tests for the SlotMap side-table container (sequential ids, near-FIFO
// consumption) and for the OpId the World stamps on every record.

#include "sim/slot_map.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adt/queue_type.hpp"
#include "baseline/zero_wait.hpp"
#include "sim/world.hpp"

namespace lintime::sim {
namespace {

TEST(SlotMapTest, InsertFindTakeRoundTrip) {
  SlotMap<std::string> m;
  EXPECT_TRUE(m.empty());
  m.insert(1, "a");
  m.insert(2, "b");
  m.insert(3, "c");
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(*m.find(2), "b");
  EXPECT_EQ(m.find(4), nullptr);

  const auto b = m.take(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, "b");
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_FALSE(m.take(2).has_value());  // double-take misses
  EXPECT_FALSE(m.empty());
}

TEST(SlotMapTest, MissesOnUnknownAndConsumedIds) {
  SlotMap<int> m;
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_FALSE(m.take(7).has_value());
  m.insert(1, 10);
  ASSERT_TRUE(m.take(1).has_value());
  // Slot 1 was trimmed; a stale insert below the base is ignored.
  m.insert(1, 99);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(SlotMapTest, OutOfOrderTakeAndSparseIds) {
  SlotMap<int> m;
  for (std::uint64_t id = 1; id <= 8; ++id) m.insert(id, static_cast<int>(id) * 10);
  // Consume out of order (a cancelled timer mid-queue).
  EXPECT_EQ(m.take(5).value(), 50);
  EXPECT_EQ(m.take(1).value(), 10);
  EXPECT_EQ(m.take(2).value(), 20);
  EXPECT_EQ(*m.find(3), 30);
  EXPECT_EQ(m.find(5), nullptr);
  for (const std::uint64_t id : {3, 4, 6, 7, 8}) {
    EXPECT_TRUE(m.take(id).has_value()) << id;
  }
  EXPECT_TRUE(m.empty());
  // After full drain new sequential ids keep working.
  m.insert(9, 90);
  EXPECT_EQ(*m.find(9), 90);
}

TEST(SlotMapTest, EraseDropsWithoutReturning) {
  SlotMap<int> m;
  m.insert(1, 1);
  m.erase(1);
  EXPECT_EQ(m.find(1), nullptr);
  m.erase(42);  // erasing a missing id is a no-op
}

WorldConfig config2() {
  WorldConfig c;
  c.params = ModelParams{2, 10.0, 2.0, 1.0};
  return c;
}

TEST(WorldOpIdTest, RecordsCarryInternedIdsWhenTypeIsSet) {
  adt::QueueType queue;
  WorldConfig c = config2();
  c.type = &queue;
  World w(c, [&](ProcId) { return std::make_unique<baseline::ZeroWaitProcess>(queue); });
  w.invoke_at(0.0, 0, queue.op_id("enqueue"), adt::Value{1});
  w.invoke_at(1.0, 1, queue.op_id("enqueue"), adt::Value{2});
  w.invoke_at(2.0, 0, queue.op_id("dequeue"), adt::Value::nil());
  w.run();
  ASSERT_EQ(w.ops().size(), 3u);
  for (const auto& op : w.ops()) {
    ASSERT_TRUE(op.op_id.valid()) << op.op;
    EXPECT_EQ(op.op_id, queue.op_id(op.op));
  }
}

}  // namespace
}  // namespace lintime::sim
