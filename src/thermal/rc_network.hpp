// Lumped-parameter RC thermal network topology.
//
// The standard compact model for package-level thermals (cf. Skadron et al.,
// "Temperature-aware microarchitecture", and the RC web-farm model of
// Ferreira et al. cited by the paper): temperatures are node potentials, heat
// flows are currents, thermal resistances are conductances between nodes, and
// heat capacities integrate the imbalance.
//
//   C_i * dT_i/dt = P_i(t) + sum_j (T_j - T_i) / R_ij
//
// Nodes are either *dynamic* (finite capacitance, integrated) or *fixed*
// (boundary conditions such as ambient air).
//
// RcNetwork only *describes* a network: nodes, edges and initial state. The
// one integrator is RcBatch, which lifts the description into B instance
// columns; a single package is a batch of one.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace thermctl::thermal {

/// Handle to a network node.
struct NodeId {
  std::size_t index = 0;
  friend constexpr bool operator==(NodeId, NodeId) = default;
};

/// Handle to a network edge (thermal resistance between two nodes).
struct EdgeId {
  std::size_t index = 0;
  friend constexpr bool operator==(EdgeId, EdgeId) = default;
};

class RcNetwork {
 public:
  /// Adds a dynamic node with heat capacity `c` and initial temperature `t0`.
  NodeId add_node(std::string name, JoulesPerKelvin c, Celsius t0);

  /// Adds a fixed-temperature boundary node (e.g. ambient air).
  NodeId add_fixed_node(std::string name, Celsius t);

  /// Connects two nodes with thermal resistance `r` (> 0).
  EdgeId add_edge(NodeId a, NodeId b, KelvinPerWatt r);

  // ---- structure queries (RcBatch's constructor reads the network
  // through these) ----
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId n) const { return node(n).name; }
  [[nodiscard]] bool is_fixed(NodeId n) const { return node(n).fixed; }
  [[nodiscard]] JoulesPerKelvin capacitance(NodeId n) const {
    return JoulesPerKelvin{node(n).capacitance};
  }
  /// Initial temperature of node `n`.
  [[nodiscard]] Celsius temperature(NodeId n) const { return Celsius{node(n).temperature}; }
  /// The two endpoints of edge `e`, in insertion (a, b) order.
  [[nodiscard]] std::pair<NodeId, NodeId> edge_nodes(EdgeId e) const {
    return {NodeId{edge(e).a}, NodeId{edge(e).b}};
  }
  /// Stored conductance (1/R, W/K) of edge `e`, as add_edge computed it.
  [[nodiscard]] double edge_conductance(EdgeId e) const { return edge(e).conductance; }

 private:
  struct Node {
    std::string name;
    double capacitance = 0.0;  // J/K; 0 marks a fixed node
    double temperature = 0.0;  // degC
    bool fixed = false;
  };
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    double conductance = 0.0;  // W/K
  };

  [[nodiscard]] const Node& node(NodeId n) const {
    THERMCTL_ASSERT(n.index < nodes_.size(), "node out of range");
    return nodes_[n.index];
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    THERMCTL_ASSERT(e.index < edges_.size(), "edge out of range");
    return edges_[e.index];
  }

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace thermctl::thermal
