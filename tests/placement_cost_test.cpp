#include "placement/cost_model.h"

#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.h"
#include "placement/assignment.h"
#include "support/submodular_checks.h"

namespace splicer::placement {
namespace {

PlacementInstance tiny_instance() {
  // Path graph 0-1-2-3-4; candidates {1, 3}; omega 0.5.
  graph::Graph g(5);
  for (graph::NodeId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  return build_instance(g, {1, 3}, 0.5);
}

TEST(CostModel, InstanceShape) {
  const auto instance = tiny_instance();
  EXPECT_EQ(instance.candidate_count(), 2u);
  EXPECT_EQ(instance.client_count(), 3u);  // nodes 0, 2, 4
  EXPECT_EQ(instance.clients, (std::vector<graph::NodeId>{0, 2, 4}));
}

TEST(CostModel, PaperCoefficientsFromHops) {
  const auto instance = tiny_instance();
  // Client 0 is 1 hop from candidate 1 and 3 hops from candidate 3.
  EXPECT_DOUBLE_EQ(instance.zeta[0][0], 0.02 * 1);
  EXPECT_DOUBLE_EQ(instance.zeta[0][1], 0.02 * 3);
  // Candidates 1 and 3 are 2 hops apart.
  EXPECT_DOUBLE_EQ(instance.delta[0][1], 0.01 * 2);
  EXPECT_DOUBLE_EQ(instance.epsilon[0][1], 0.05 * 2);
  EXPECT_DOUBLE_EQ(instance.delta[0][0], 0.0);  // zero diagonal
}

TEST(CostModel, UniformDeltaOption) {
  graph::Graph g(6);
  for (graph::NodeId i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1);
  CostCoefficients coefficients;
  coefficients.uniform_delta = true;
  const auto instance = build_instance(g, {0, 2, 5}, 0.1, coefficients);
  const double d01 = instance.delta[0][1];
  EXPECT_DOUBLE_EQ(instance.delta[1][2], d01);
  EXPECT_DOUBLE_EQ(instance.delta[2][0], d01);
}

TEST(CostModel, ManagementCostSumsAssignments) {
  const auto instance = tiny_instance();
  PlacementPlan plan;
  plan.placed = {1, 1};
  plan.assignment = {0, 0, 1};  // clients 0,2 -> cand 1; client 4 -> cand 3
  // zeta: 0->1: 1 hop, 2->1: 1 hop, 4->3: 1 hop = 3 * 0.02.
  EXPECT_DOUBLE_EQ(management_cost(instance, plan), 0.06);
}

TEST(CostModel, SynchronizationCostFormula) {
  const auto instance = tiny_instance();
  PlacementPlan plan;
  plan.placed = {1, 1};
  plan.assignment = {0, 0, 1};
  // CS = sum over ordered placed pairs (n != l):
  //   delta(2 hops = 0.02) * managed_n + epsilon(0.1)
  // pair (0,1): 0.02*2 + 0.1; pair (1,0): 0.02*1 + 0.1 => 0.26.
  EXPECT_NEAR(synchronization_cost(instance, plan), 0.26, 1e-12);
}

TEST(CostModel, BalanceCombinesWithOmega) {
  const auto instance = tiny_instance();
  PlacementPlan plan;
  plan.placed = {1, 1};
  plan.assignment = {0, 0, 1};
  const auto costs = balance_cost(instance, plan);
  EXPECT_NEAR(costs.balance, costs.management + 0.5 * costs.synchronization, 1e-12);
}

TEST(CostModel, SingleHubHasNoSyncCost) {
  const auto instance = tiny_instance();
  PlacementPlan plan;
  plan.placed = {1, 0};
  plan.assignment = {0, 0, 0};
  EXPECT_DOUBLE_EQ(synchronization_cost(instance, plan), 0.0);
}

TEST(Lemma1, AssignmentScoreFormula) {
  const auto instance = tiny_instance();
  const submodular::Subset both{1, 1};
  // score(m=0, n=0) = omega * sum_l delta[0][l] + zeta[0][0]
  EXPECT_DOUBLE_EQ(assignment_score(instance, both, 0, 0), 0.5 * 0.02 + 0.02);
}

TEST(Lemma1, OptimalAssignmentPicksArgmin) {
  const auto instance = tiny_instance();
  const auto plan = optimal_assignment(instance, {1, 1});
  // Client 0 (node 0): nearer to candidate 1; client 4: nearer candidate 3;
  // client 2 (node 2): equidistant, tie-breaks to the first candidate.
  EXPECT_EQ(plan.assignment[0], 0u);
  EXPECT_EQ(plan.assignment[1], 0u);
  EXPECT_EQ(plan.assignment[2], 1u);
}

TEST(Lemma1, ProofProperty_NoSingleReassignmentImproves) {
  // Lemma 1's argument: moving any client off its assigned hub cannot
  // lower the balance cost. Verified exhaustively on a random instance.
  common::Rng rng(9);
  const auto g = graph::watts_strogatz(40, 6, 0.2, rng);
  const auto instance = build_instance_by_degree(g, 5, 0.2);
  const submodular::Subset placed{1, 0, 1, 1, 0};
  const auto plan = optimal_assignment(instance, placed);
  const double base = balance_cost(instance, plan).balance;
  for (std::size_t m = 0; m < instance.client_count(); ++m) {
    for (std::size_t n = 0; n < instance.candidate_count(); ++n) {
      if (!placed[n] || n == plan.assignment[m]) continue;
      PlacementPlan moved = plan;
      moved.assignment[m] = n;
      EXPECT_GE(balance_cost(instance, moved).balance, base - 1e-9);
    }
  }
}

TEST(Lemma1, RejectsEmptyPlacement) {
  const auto instance = tiny_instance();
  EXPECT_THROW((void)optimal_assignment(instance, {0, 0}), std::invalid_argument);
}

TEST(SetFunctionView, MatchesDirectEvaluation) {
  const auto instance = tiny_instance();
  const auto f = placement_set_function(instance);
  const submodular::Subset both{1, 1};
  const auto plan = optimal_assignment(instance, both);
  EXPECT_DOUBLE_EQ(f.value(both), balance_cost(instance, plan).balance);
  // Empty set evaluates to the penalty.
  EXPECT_DOUBLE_EQ(f.value({0, 0}), empty_set_penalty(instance));
}

TEST(SetFunctionView, PenaltyDominatesAllRealCosts) {
  common::Rng rng(10);
  const auto g = graph::watts_strogatz(30, 4, 0.2, rng);
  const auto instance = build_instance_by_degree(g, 6, 0.3);
  const auto f = placement_set_function(instance);
  const double penalty = empty_set_penalty(instance);
  for (std::uint64_t mask = 1; mask < (1u << 6); ++mask) {
    submodular::Subset s(6, 0);
    for (int i = 0; i < 6; ++i) s[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    EXPECT_LT(f.value(s), penalty);
  }
}

TEST(SetFunctionView, SupermodularUnderUniformDelta) {
  // Lemma 2: uniform delta implies f is supermodular; spot-check it.
  common::Rng rng(11);
  const auto g = graph::watts_strogatz(30, 4, 0.2, rng);
  CostCoefficients coefficients;
  coefficients.uniform_delta = true;
  const auto instance = build_instance(
      g, {0, 3, 7, 11, 15, 19}, 0.05, coefficients);
  const auto f = placement_set_function(instance);
  common::Rng check_rng(12);
  EXPECT_TRUE(submodular::is_supermodular_sampled(f, check_rng, 300, 1e-7));
}

TEST(InstanceValidation, CatchesShapeErrors) {
  PlacementInstance instance;
  instance.candidates = {1, 2};
  instance.clients = {0};
  instance.zeta = {{0.1}};  // wrong column count
  instance.delta = {{0, 0}, {0, 0}};
  instance.epsilon = {{0, 0}, {0, 0}};
  EXPECT_THROW(instance.validate(), std::invalid_argument);
}

TEST(InstanceValidation, RejectsNegativeAndNonFiniteOmega) {
  graph::Graph g(5);
  for (graph::NodeId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  EXPECT_NO_THROW((void)build_instance(g, {1, 3}, 0.0));
  for (const double omega : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)build_instance(g, {1, 3}, omega), std::invalid_argument)
        << omega;
  }
}

}  // namespace
}  // namespace splicer::placement
