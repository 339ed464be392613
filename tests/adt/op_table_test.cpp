// Tests for the interned operation-identity layer: OpTable construction and
// lookup, DataType's id-based spec/category access, and the binding contract
// between DataType::initial_state() and ObjectState::apply(OpId).

#include "adt/op_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "adt/data_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"

namespace lintime::adt {
namespace {

OpTable make_table() {
  return OpTable{{
      OpSpec{"write", OpCategory::kPureMutator, true},
      OpSpec{"read", OpCategory::kPureAccessor, false},
      OpSpec{"swap", OpCategory::kMixed, true},
  }};
}

TEST(OpTableTest, FindResolvesEveryDeclaredOp) {
  const OpTable table = make_table();
  ASSERT_EQ(table.size(), 3u);
  for (std::uint32_t i = 0; i < table.size(); ++i) {
    const OpId id = table.find(table.specs()[i].name);
    ASSERT_TRUE(id.valid());
    EXPECT_EQ(id.index(), i);  // ids are declaration-order indices
    EXPECT_EQ(table.spec(id).name, table.specs()[i].name);
    EXPECT_EQ(table.name_of(id), table.specs()[i].name);
  }
}

TEST(OpTableTest, FindUnknownReturnsInvalid) {
  const OpTable table = make_table();
  EXPECT_FALSE(table.find("nonsense").valid());
  EXPECT_FALSE(table.find("").valid());
  EXPECT_FALSE(OpId{}.valid());
}

TEST(OpTableTest, SpecOnBadIdThrows) {
  const OpTable table = make_table();
  EXPECT_THROW((void)table.spec(OpId{}), std::out_of_range);
  EXPECT_THROW((void)table.spec(OpId{99}), std::out_of_range);
}

TEST(OpTableTest, DuplicateNamesRejected) {
  EXPECT_THROW(OpTable({OpSpec{"op", OpCategory::kMixed, true},
                        OpSpec{"op", OpCategory::kMixed, true}}),
               std::invalid_argument);
}

TEST(OpTableTest, OpIdComparesAndHashes) {
  const OpId a{1};
  const OpId b{1};
  const OpId c{2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<OpId>{}(a), std::hash<OpId>{}(b));
}

TEST(OpTableTest, DataTypeOpIdRoundTrips) {
  QueueType queue;
  for (const auto& spec : queue.ops()) {
    const OpId id = queue.op_id(spec.name);
    ASSERT_TRUE(id.valid());
    EXPECT_EQ(queue.spec(id).name, spec.name);
    EXPECT_EQ(queue.category(id), spec.category);
  }
}

TEST(OpTableTest, DataTypeOpIdThrowsWithNamedOp) {
  QueueType queue;
  try {
    (void)queue.op_id("frobnicate");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must still name the unknown operation (satellite: spec()
    // keeps its contract after the linear scan became a table lookup).
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
  EXPECT_THROW((void)queue.spec("frobnicate"), std::invalid_argument);
}

TEST(OpTableTest, BoundStateDispatchesOnId) {
  RegisterType reg;
  auto state = reg.initial_state();
  const OpId write = reg.op_id("write");
  const OpId read = reg.op_id("read");
  EXPECT_EQ(state->apply(write, Value{42}), Value::nil());
  EXPECT_EQ(state->apply(read, Value::nil()), Value{42});
  // Id and string dispatch are the same operation.
  EXPECT_EQ(state->apply("read", Value::nil()), Value{42});
}

TEST(OpTableTest, CloneKeepsTheBinding) {
  RegisterType reg;
  auto state = reg.initial_state();
  state->apply(reg.op_id("write"), Value{7});
  auto copy = state->clone();
  EXPECT_EQ(copy->apply(reg.op_id("read"), Value::nil()), Value{7});
}

TEST(OpTableTest, TableIsStablePerType) {
  QueueType queue;
  EXPECT_EQ(&queue.table(), &queue.table());  // lazy cache resolves once
  EXPECT_EQ(queue.table().size(), queue.ops().size());
}

}  // namespace
}  // namespace lintime::adt
