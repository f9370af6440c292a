#include "pcn/channel.h"

#include <gtest/gtest.h>

namespace splicer::pcn {
namespace {

using common::whole_tokens;

TEST(Channel, InitialState) {
  Channel ch(1, 2, whole_tokens(10), whole_tokens(7));
  EXPECT_EQ(ch.node_a(), 1u);
  EXPECT_EQ(ch.node_b(), 2u);
  EXPECT_EQ(ch.available(Direction::kForward), whole_tokens(10));
  EXPECT_EQ(ch.available(Direction::kBackward), whole_tokens(7));
  EXPECT_EQ(ch.total(), whole_tokens(17));
  EXPECT_EQ(ch.capacity(), whole_tokens(17));
}

TEST(Channel, DirectionFrom) {
  Channel ch(1, 2, 1, 1);
  EXPECT_EQ(ch.direction_from(1), Direction::kForward);
  EXPECT_EQ(ch.direction_from(2), Direction::kBackward);
  EXPECT_THROW((void)ch.direction_from(3), std::invalid_argument);
  EXPECT_EQ(ch.payer(Direction::kForward), 1u);
  EXPECT_EQ(ch.payee(Direction::kForward), 2u);
}

TEST(Channel, LockSettleMovesFundsAcross) {
  Channel ch(0, 1, whole_tokens(10), whole_tokens(10));
  ASSERT_TRUE(ch.lock(Direction::kForward, whole_tokens(4)));
  EXPECT_EQ(ch.available(Direction::kForward), whole_tokens(6));
  EXPECT_EQ(ch.locked(Direction::kForward), whole_tokens(4));
  EXPECT_EQ(ch.total(), whole_tokens(20));  // conservation during lock

  ch.settle(Direction::kForward, whole_tokens(4));
  EXPECT_EQ(ch.locked(Direction::kForward), 0);
  EXPECT_EQ(ch.available(Direction::kBackward), whole_tokens(14));
  EXPECT_EQ(ch.total(), whole_tokens(20));  // and after settle
}

TEST(Channel, LockRefundRestores) {
  Channel ch(0, 1, whole_tokens(10), whole_tokens(10));
  ASSERT_TRUE(ch.lock(Direction::kBackward, whole_tokens(3)));
  ch.refund(Direction::kBackward, whole_tokens(3));
  EXPECT_EQ(ch.available(Direction::kBackward), whole_tokens(10));
  EXPECT_EQ(ch.locked(Direction::kBackward), 0);
  EXPECT_EQ(ch.total(), whole_tokens(20));
}

TEST(Channel, LockFailsOnInsufficientBalance) {
  Channel ch(0, 1, whole_tokens(2), 0);
  EXPECT_FALSE(ch.lock(Direction::kForward, whole_tokens(3)));
  EXPECT_EQ(ch.available(Direction::kForward), whole_tokens(2));  // unchanged
  EXPECT_FALSE(ch.lock(Direction::kBackward, 1));
}

TEST(Channel, PartialSettleAndRefund) {
  Channel ch(0, 1, whole_tokens(10), 0);
  ASSERT_TRUE(ch.lock(Direction::kForward, whole_tokens(6)));
  ch.settle(Direction::kForward, whole_tokens(2));
  ch.refund(Direction::kForward, whole_tokens(1));
  EXPECT_EQ(ch.locked(Direction::kForward), whole_tokens(3));
  EXPECT_EQ(ch.available(Direction::kForward), whole_tokens(5));
  EXPECT_EQ(ch.available(Direction::kBackward), whole_tokens(2));
  EXPECT_EQ(ch.total(), whole_tokens(10));
}

TEST(Channel, OverSettleThrows) {
  Channel ch(0, 1, whole_tokens(10), 0);
  ASSERT_TRUE(ch.lock(Direction::kForward, whole_tokens(2)));
  EXPECT_THROW(ch.settle(Direction::kForward, whole_tokens(3)), std::logic_error);
  EXPECT_THROW(ch.refund(Direction::kForward, whole_tokens(3)), std::logic_error);
}

TEST(Channel, Imbalance) {
  Channel ch(0, 1, whole_tokens(8), whole_tokens(3));
  EXPECT_EQ(ch.imbalance(), whole_tokens(5));
}

TEST(Channel, ConstructionValidation) {
  EXPECT_THROW(Channel(0, 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Channel(0, 1, -1, 1), std::invalid_argument);
}

TEST(Channel, NonPositiveAmountsRejected) {
  Channel ch(0, 1, whole_tokens(5), whole_tokens(5));
  EXPECT_THROW((void)ch.lock(Direction::kForward, 0), std::invalid_argument);
  EXPECT_THROW((void)ch.lock(Direction::kForward, -1), std::invalid_argument);
}

TEST(Channel, BulkSettleMatchesIndividualSettles) {
  Channel a(0, 1, whole_tokens(10), whole_tokens(2));
  Channel b(0, 1, whole_tokens(10), whole_tokens(2));
  for (const Amount v : {whole_tokens(1), whole_tokens(3), whole_tokens(2)}) {
    ASSERT_TRUE(a.lock(Direction::kForward, v));
    ASSERT_TRUE(b.lock(Direction::kForward, v));
    a.settle(Direction::kForward, v);
  }
  b.settle_n(Direction::kForward, whole_tokens(6), 3);
  EXPECT_EQ(a.available(Direction::kForward), b.available(Direction::kForward));
  EXPECT_EQ(a.available(Direction::kBackward), b.available(Direction::kBackward));
  EXPECT_EQ(b.locked(Direction::kForward), 0);
  EXPECT_EQ(b.total(), whole_tokens(12));
}

TEST(Channel, BulkRefundMatchesIndividualRefunds) {
  Channel a(0, 1, whole_tokens(9), whole_tokens(1));
  Channel b(0, 1, whole_tokens(9), whole_tokens(1));
  for (const Amount v : {whole_tokens(4), whole_tokens(2)}) {
    ASSERT_TRUE(a.lock(Direction::kForward, v));
    ASSERT_TRUE(b.lock(Direction::kForward, v));
    a.refund(Direction::kForward, v);
  }
  b.refund_n(Direction::kForward, whole_tokens(6), 2);
  EXPECT_EQ(a.available(Direction::kForward), b.available(Direction::kForward));
  EXPECT_EQ(b.locked(Direction::kForward), 0);
}

TEST(Channel, BulkOperationsValidate) {
  Channel ch(0, 1, whole_tokens(10), whole_tokens(10));
  ASSERT_TRUE(ch.lock(Direction::kForward, whole_tokens(5)));
  EXPECT_THROW(ch.settle_n(Direction::kForward, whole_tokens(5), 0),
               std::invalid_argument);
  // A coalesced total below one token unit per operation is impossible.
  EXPECT_THROW(ch.settle_n(Direction::kForward, 1, 2), std::invalid_argument);
  // Settling more than the lock pool still trips the HTLC guard.
  EXPECT_THROW(ch.settle_n(Direction::kForward, whole_tokens(6), 2),
               std::logic_error);
  EXPECT_THROW(ch.refund_n(Direction::kForward, whole_tokens(6), 2),
               std::logic_error);
  ch.settle_n(Direction::kForward, whole_tokens(5), 1);
  EXPECT_EQ(ch.available(Direction::kBackward), whole_tokens(15));
}

TEST(DirectionHelpers, OppositeAndIndex) {
  EXPECT_EQ(opposite(Direction::kForward), Direction::kBackward);
  EXPECT_EQ(opposite(Direction::kBackward), Direction::kForward);
  EXPECT_EQ(dir_index(Direction::kForward), 0u);
  EXPECT_EQ(dir_index(Direction::kBackward), 1u);
}

}  // namespace
}  // namespace splicer::pcn
