#include "splicer/workflow.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "splicer/demand_codec.h"

namespace splicer::core {
namespace {

TEST(DemandCodec, RoundTrip) {
  const PaymentDemand demand{17, 42, common::tokens(13.25)};
  const auto bytes = encode_demand(demand);
  EXPECT_EQ(bytes.size(), 16u);
  const auto decoded = decode_demand(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, demand);
}

TEST(DemandCodec, RejectsWrongLength) {
  EXPECT_FALSE(decode_demand({1, 2, 3}).has_value());
  EXPECT_FALSE(decode_demand({}).has_value());
}

class WorkflowFixture : public ::testing::Test {
 protected:
  WorkflowFixture()
      : rng_(1234), kmg_(5, rng_.fork()), workflow_(kmg_, rng_) {}

  common::Rng rng_;
  crypto::KeyManagementGroup kmg_;
  PaymentWorkflow workflow_;
};

TEST_F(WorkflowFixture, SuccessfulEndToEnd) {
  const auto result = workflow_.execute({1, 2, common::whole_tokens(10)});
  EXPECT_TRUE(result.success);
  EXPECT_GE(result.trace.size(), 8u);
  EXPECT_GT(result.messages, result.trace.size());  // per-TU messages add up
}

TEST_F(WorkflowFixture, TuValuesSumToDemand) {
  const auto value = common::tokens(37.5);
  const auto result = workflow_.execute({3, 4, value});
  ASSERT_TRUE(result.success);
  const auto sum = std::accumulate(result.tu_values.begin(),
                                   result.tu_values.end(), pcn::Amount{0});
  EXPECT_EQ(sum, value);
}

TEST_F(WorkflowFixture, TuBoundsRespected) {
  for (const double tokens : {1.0, 3.999, 4.0, 4.001, 5.0, 88.0, 250.75}) {
    const auto result = workflow_.execute({1, 2, common::tokens(tokens)});
    ASSERT_TRUE(result.success) << tokens;
    for (const auto v : result.tu_values) {
      EXPECT_GE(v, common::whole_tokens(1)) << tokens;  // Min-TU
      EXPECT_LE(v, common::whole_tokens(4)) << tokens;  // Max-TU
    }
  }
}

TEST_F(WorkflowFixture, SubTokenCrumbFoldedIntoLastTu) {
  // 4.5 tokens cannot be [4, 0.5] (0.5 < Min-TU); must be [3.5, 1] or
  // similar with every piece >= 1 token.
  const auto tus = workflow_.split_into_tus(common::tokens(4.5));
  pcn::Amount sum = 0;
  for (const auto v : tus) {
    EXPECT_GE(v, common::whole_tokens(1));
    sum += v;
  }
  EXPECT_EQ(sum, common::tokens(4.5));
}

TEST_F(WorkflowFixture, FreshTidPerExecution) {
  const auto a = workflow_.execute({1, 2, common::whole_tokens(2)});
  const auto b = workflow_.execute({1, 2, common::whole_tokens(2)});
  EXPECT_NE(a.tid, b.tid);
}

TEST_F(WorkflowFixture, KmgIssuesOneKeyPerTidPlusPerTuid) {
  const auto before = kmg_.issued_count();
  const auto result = workflow_.execute({1, 2, common::whole_tokens(10)});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(kmg_.issued_count() - before, 1 + result.tu_count);
}

TEST_F(WorkflowFixture, NonPositiveValueIsRejected) {
  // Splitting nothing yields zero TUs, which must never read as a success.
  EXPECT_THROW((void)workflow_.execute({1, 2, 0}), std::invalid_argument);
  EXPECT_THROW((void)workflow_.execute({1, 2, -common::whole_tokens(5)}),
               std::invalid_argument);
}

TEST_F(WorkflowFixture, SplitCountMatchesCeiling) {
  // 10 tokens / Max-TU 4 -> 3 TUs.
  EXPECT_EQ(workflow_.split_into_tus(common::whole_tokens(10)).size(), 3u);
  EXPECT_EQ(workflow_.split_into_tus(common::whole_tokens(4)).size(), 1u);
  EXPECT_EQ(workflow_.split_into_tus(common::whole_tokens(8)).size(), 2u);
}

TEST(WorkflowConfigTest, BadBoundsRejected) {
  common::Rng rng(1);
  crypto::KeyManagementGroup kmg(3, rng.fork());
  WorkflowConfig config;
  config.min_tu = 0;
  EXPECT_THROW(PaymentWorkflow(kmg, rng, config), std::invalid_argument);
  config.min_tu = common::whole_tokens(5);
  config.max_tu = common::whole_tokens(4);
  EXPECT_THROW(PaymentWorkflow(kmg, rng, config), std::invalid_argument);
}

}  // namespace
}  // namespace splicer::core
