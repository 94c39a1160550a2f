#include "cluster/cluster.hpp"

#include "common/assert.hpp"

namespace thermctl::cluster {

Cluster::Cluster(std::size_t count, const NodeParams& base, bool batched) {
  THERMCTL_ASSERT(count > 0, "cluster needs at least one node");
  THERMCTL_ASSERT(batched, "every cluster is fleet-backed");
  // All nodes are built from one base params, so the fleet is homogeneous
  // by construction and every node can view the shared batch.
  fleet_ = std::make_unique<FleetState>(base.package, count);
  nodes_.reserve(count);
  raw_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    NodeParams params = base;
    params.seed = base.seed + i * 7919;  // distinct noise streams per node
    nodes_.push_back(std::make_unique<Node>(static_cast<int>(i), params, *fleet_, i));
    raw_.push_back(nodes_.back().get());
    ipmi_.attach(static_cast<int>(i), &nodes_.back()->bmc());
  }
  // Every node above shares `base`'s hardware constants (only the noise
  // seed differs), so one sweep can batch the whole rack's device/OS work.
  sweep_ = std::make_unique<FleetSweep>(*fleet_, base, raw_);
}

void Cluster::step_range(std::size_t begin, std::size_t end, Seconds dt) {
  sweep_->pre_range(begin, end, dt);
  fleet_->batch().step_range(dt, begin, end);
  sweep_->post_range(begin, end, dt);
}

void Cluster::set_inlet_temperature(std::size_t i, Celsius t) {
  node(i).package().set_ambient(t);
}

Watts Cluster::total_power() const {
  double sum = 0.0;
  for (const auto& n : nodes_) {
    sum += n->meter().read().value();
  }
  return Watts{sum};
}

void Cluster::settle_all() {
  // Node::settle's passes, each device stage over every node and then one
  // batched march of every package. Nodes share nothing while settling, so
  // each ends bitwise where settling it alone would leave it.
  for (int pass = 0; pass < Node::kSettlePasses; ++pass) {
    for (Node* n : raw_) {
      n->prepare_settle(pass);
    }
    fleet_->batch().settle_range(0, size());
  }
  for (Node* n : raw_) {
    n->finish_settle();
  }
}

}  // namespace thermctl::cluster
