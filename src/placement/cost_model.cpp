#include "placement/cost_model.h"

#include <cmath>
#include <stdexcept>

#include "graph/shortest_path.h"
#include "placement/assignment.h"

namespace splicer::placement {

void PlacementInstance::validate() const {
  if (candidates.empty()) throw std::invalid_argument("instance: no candidates");
  if (zeta.size() != clients.size()) throw std::invalid_argument("instance: zeta rows");
  for (const auto& row : zeta) {
    if (row.size() != candidates.size()) {
      throw std::invalid_argument("instance: zeta cols");
    }
  }
  if (delta.size() != candidates.size() || epsilon.size() != candidates.size()) {
    throw std::invalid_argument("instance: delta/epsilon rows");
  }
  for (const auto& row : delta) {
    if (row.size() != candidates.size()) {
      throw std::invalid_argument("instance: delta cols");
    }
  }
  for (const auto& row : epsilon) {
    if (row.size() != candidates.size()) {
      throw std::invalid_argument("instance: epsilon cols");
    }
  }
  if (!std::isfinite(omega) || omega < 0) {
    throw std::invalid_argument("instance: omega must be finite and >= 0");
  }
}

PlacementInstance build_instance(const graph::Graph& graph,
                                 std::vector<graph::NodeId> candidates,
                                 double omega,
                                 const CostCoefficients& coefficients) {
  PlacementInstance instance;
  instance.omega = omega;
  instance.candidates = std::move(candidates);

  std::vector<char> is_candidate(graph.node_count(), 0);
  for (const auto c : instance.candidates) is_candidate.at(c) = 1;
  for (graph::NodeId n = 0; n < graph.node_count(); ++n) {
    if (!is_candidate[n]) instance.clients.push_back(n);
  }

  // Hop distances from each candidate (cheaper than a full HopMatrix for
  // large graphs: |V_SNC| BFS runs).
  std::vector<std::vector<int>> hops_from_candidate;
  hops_from_candidate.reserve(instance.candidates.size());
  for (const auto c : instance.candidates) {
    hops_from_candidate.push_back(graph::bfs_hops(graph, c));
  }

  const auto n_cand = instance.candidates.size();
  const auto n_client = instance.clients.size();
  instance.zeta.assign(n_client, std::vector<double>(n_cand, 0.0));
  instance.delta.assign(n_cand, std::vector<double>(n_cand, 0.0));
  instance.epsilon.assign(n_cand, std::vector<double>(n_cand, 0.0));

  constexpr double kDisconnected = 1e6;  // effectively forbids assignment
  for (std::size_t m = 0; m < n_client; ++m) {
    for (std::size_t n = 0; n < n_cand; ++n) {
      const int h = hops_from_candidate[n][instance.clients[m]];
      instance.zeta[m][n] =
          h < 0 ? kDisconnected : coefficients.zeta_per_hop * h;
    }
  }
  double delta_sum = 0.0;
  std::size_t delta_pairs = 0;
  for (std::size_t n = 0; n < n_cand; ++n) {
    for (std::size_t l = 0; l < n_cand; ++l) {
      if (n == l) continue;
      const int h = hops_from_candidate[n][instance.candidates[l]];
      const double hop_cost = h < 0 ? kDisconnected : static_cast<double>(h);
      instance.delta[n][l] = coefficients.delta_per_hop * hop_cost;
      instance.epsilon[n][l] = coefficients.epsilon_per_hop * hop_cost;
      delta_sum += instance.delta[n][l];
      ++delta_pairs;
    }
  }
  if (coefficients.uniform_delta && delta_pairs > 0) {
    const double uniform = delta_sum / static_cast<double>(delta_pairs);
    for (std::size_t n = 0; n < n_cand; ++n) {
      for (std::size_t l = 0; l < n_cand; ++l) {
        if (n != l) instance.delta[n][l] = uniform;
      }
    }
  }
  instance.validate();
  return instance;
}

PlacementInstance build_instance_by_degree(const graph::Graph& graph,
                                           std::size_t candidate_count,
                                           double omega,
                                           const CostCoefficients& coefficients) {
  if (candidate_count == 0 || candidate_count > graph.node_count()) {
    throw std::invalid_argument("build_instance_by_degree: bad candidate_count");
  }
  auto by_degree = graph::nodes_by_degree(graph);
  by_degree.resize(candidate_count);
  return build_instance(graph, std::move(by_degree), omega, coefficients);
}

double management_cost(const PlacementInstance& instance, const PlacementPlan& plan) {
  double total = 0.0;
  for (std::size_t m = 0; m < instance.client_count(); ++m) {
    total += instance.zeta[m][plan.assignment.at(m)];
  }
  return total;
}

double synchronization_cost(const PlacementInstance& instance,
                            const PlacementPlan& plan) {
  // Clients managed per placed candidate.
  std::vector<double> managed(instance.candidate_count(), 0.0);
  for (std::size_t m = 0; m < instance.client_count(); ++m) {
    managed.at(plan.assignment[m]) += 1.0;
  }
  double total = 0.0;
  for (std::size_t n = 0; n < instance.candidate_count(); ++n) {
    if (!plan.placed.at(n)) continue;
    for (std::size_t l = 0; l < instance.candidate_count(); ++l) {
      if (!plan.placed.at(l)) continue;
      total += instance.delta[n][l] * managed[n] + instance.epsilon[n][l];
    }
  }
  return total;
}

CostBreakdown balance_cost(const PlacementInstance& instance,
                           const PlacementPlan& plan) {
  CostBreakdown costs;
  costs.management = management_cost(instance, plan);
  costs.synchronization = synchronization_cost(instance, plan);
  costs.balance = costs.management + instance.omega * costs.synchronization;
  return costs;
}

double empty_set_penalty(const PlacementInstance& instance) {
  // Upper bound on f over non-empty subsets: worst-case management
  // (every client at its most expensive candidate) plus full-mesh
  // synchronisation with every client on the delta-heaviest hub.
  double worst_management = 0.0;
  for (std::size_t m = 0; m < instance.client_count(); ++m) {
    double row_max = 0.0;
    for (const double z : instance.zeta[m]) row_max = std::max(row_max, z);
    worst_management += row_max;
  }
  double worst_sync = 0.0;
  for (std::size_t n = 0; n < instance.candidate_count(); ++n) {
    for (std::size_t l = 0; l < instance.candidate_count(); ++l) {
      worst_sync += instance.delta[n][l] * static_cast<double>(instance.client_count()) +
                    instance.epsilon[n][l];
    }
  }
  return worst_management + instance.omega * worst_sync + 1.0;
}

submodular::SetFunction placement_set_function(const PlacementInstance& instance) {
  instance.validate();
  submodular::SetFunction f;
  f.ground_size = instance.candidate_count();
  const double penalty = empty_set_penalty(instance);
  f.value = [&instance, penalty](const submodular::Subset& subset) {
    if (submodular::cardinality(subset) == 0) return penalty;
    const PlacementPlan plan = optimal_assignment(instance, subset);
    return balance_cost(instance, plan).balance;
  };
  return f;
}

}  // namespace splicer::placement
