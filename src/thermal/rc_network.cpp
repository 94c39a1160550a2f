#include "thermal/rc_network.hpp"

#include "common/assert.hpp"

namespace thermctl::thermal {

NodeId RcNetwork::add_node(std::string name, JoulesPerKelvin c, Celsius t0) {
  THERMCTL_ASSERT(c.value() > 0.0, "dynamic node needs positive capacitance");
  nodes_.push_back(Node{std::move(name), c.value(), t0.value(), false});
  return NodeId{nodes_.size() - 1};
}

NodeId RcNetwork::add_fixed_node(std::string name, Celsius t) {
  nodes_.push_back(Node{std::move(name), 0.0, t.value(), true});
  return NodeId{nodes_.size() - 1};
}

EdgeId RcNetwork::add_edge(NodeId a, NodeId b, KelvinPerWatt r) {
  THERMCTL_ASSERT(a.index < nodes_.size() && b.index < nodes_.size(), "edge node out of range");
  THERMCTL_ASSERT(a.index != b.index, "self-edge");
  THERMCTL_ASSERT(r.value() > 0.0, "thermal resistance must be positive");
  edges_.push_back(Edge{a.index, b.index, 1.0 / r.value()});
  return EdgeId{edges_.size() - 1};
}

}  // namespace thermctl::thermal
