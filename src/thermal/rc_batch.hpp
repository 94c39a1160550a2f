// Batched RC thermal networks: the one RC solver.
//
// A datacenter rack is thousands of *structurally identical* package models
// (same nodes, capacitances and edges; only temperatures, powers and the
// fan-dependent convection conductance differ per machine). RcBatch lifts B
// instances of one RcNetwork topology into structure-of-arrays storage: the
// CSR adjacency, capacitances and fixed-node mask are shared, while
// temperatures, injected powers and edge conductances live in node-major
// rows of length B (`temp[k*B + b]`). One euler_substep pass then advances
// *every* instance with tight unit-stride loops over the instance axis that
// the compiler auto-vectorizes — no per-instance dispatch at all. A single
// package is a batch of one.
//
// Integration is explicit Euler with automatic sub-stepping: each step is
// split so that every sub-step stays below an eighth of the instance's
// smallest node time constant, which keeps the scheme stable for the stiff
// die/heatsink combination without an implicit solver. Each step plans each
// instance's substep count afresh from its time constant, which
// set_resistance keeps current.
//
// Bit-exactness contract: a column's trajectory depends only on the calls
// made on that column — never on the batch size, the column's neighbours,
// their substep plans or the step_range/settle_range bounds. Flux
// accumulation visits half-edges in edge-insertion order and the time
// constants accumulate in the same order. tests/golden/ pins the bits; the
// batch-of-one tests in tests/thermal pin column independence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {

class RcBatch {
 public:
  /// Builds a batch of `instances` copies of `tmpl`: shared topology, every
  /// instance's temperatures and conductances initialized from the
  /// template's, and zero injected power.
  RcBatch(const RcNetwork& tmpl, std::size_t instances);

  [[nodiscard]] std::size_t instance_count() const { return instances_; }
  [[nodiscard]] std::size_t rc_node_count() const { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_slots_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId n) const;

  // ---- per-instance state ----
  void set_power(std::size_t b, NodeId n, Watts p);
  [[nodiscard]] Watts power(std::size_t b, NodeId n) const;
  void set_resistance(std::size_t b, EdgeId e, KelvinPerWatt r);
  [[nodiscard]] KelvinPerWatt resistance(std::size_t b, EdgeId e) const;
  void set_temperature(std::size_t b, NodeId n, Celsius t);
  void set_fixed_temperature(std::size_t b, NodeId n, Celsius t);
  [[nodiscard]] Celsius temperature(std::size_t b, NodeId n) const;
  [[nodiscard]] Seconds min_time_constant(std::size_t b) const;

  /// Advances instances [begin, end) by `dt`, sub-stepping per instance for
  /// stability. Contiguous runs of instances that agree on the substep count
  /// (the homogeneous common case: all of them) advance in one vectorized
  /// pass; disagreeing instances split the range, never the arithmetic.
  ///
  /// Thread-safety: concurrent step_range calls on DISJOINT instance ranges
  /// are safe (all touched state is per-instance columns) — this is what the
  /// sharded engine relies on. set_resistance/set_power on an instance inside
  /// a shard's range are likewise column-local. Everything else on this class
  /// is single-threaded.
  void step_range(Seconds dt, std::size_t begin, std::size_t end);
  void step_all(Seconds dt) { step_range(dt, 0, instances_); }
  void step_one(std::size_t b, Seconds dt) { step_range(dt, b, b + 1); }

  /// Solves every instance in [begin, end) for the steady state under its
  /// current powers and resistances, by marching it to quiescence: used to
  /// prime experiments that start from thermal equilibrium. Each column
  /// marches with its own large stable step, min_time_constant(b) / 2, until
  /// the largest move of one
  /// iteration drops below `tolerance_kelvin`, or `max_iterations` pass. The
  /// columns march together in cache-sized blocks: each iteration advances
  /// maximal runs of still-active columns that share a step in one
  /// vectorized pass, and a converged column leaves the active set. A run of
  /// adjacent columns that match bit for bit (every temperature, power and
  /// conductance cell, and the step) marches once: only its first column
  /// marches, and the others take that column's final temperature and flux
  /// rows, so a homogeneous fleet marches one column per distinct package.
  /// Every column ends bitwise where marching it alone ends.
  void settle_range(std::size_t begin, std::size_t end, int max_iterations = 200000,
                    double tolerance_kelvin = 1e-7);
  void settle(std::size_t b) { settle_range(b, b + 1); }

  /// Stable pointers to one instance's state cells, for per-node views
  /// (PackageModel) that access a fixed (instance, node) coordinate every
  /// physics step. Range/fixed-node validation happens here, once, instead
  /// of per access; the SoA arrays never reallocate after construction, so
  /// the pointers live as long as the batch. Writing through power_cell is
  /// exactly set_power (a plain cell write with no bookkeeping);
  /// temperature_cell reads are exactly temperature().
  [[nodiscard]] double* power_cell(std::size_t b, NodeId n) {
    THERMCTL_ASSERT(b < instances_, "instance out of range");
    THERMCTL_ASSERT(n.index < node_count_, "node out of range");
    THERMCTL_ASSERT(!fixed_[n.index], "cannot inject power into a fixed node");
    return &row(power_, n.index)[b];
  }
  [[nodiscard]] const double* temperature_cell(std::size_t b, NodeId n) const {
    THERMCTL_ASSERT(b < instances_, "instance out of range");
    THERMCTL_ASSERT(n.index < node_count_, "node out of range");
    return &row(temp_, n.index)[b];
  }

  /// Heap footprint of the SoA arrays (bytes) — the "hot" per-node state the
  /// scaling benchmark reports as bytes/node.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// One Jacobi substep of length `h` for instances [begin, end).
  void euler_substep_range(double h, std::size_t begin, std::size_t end);
  /// Full per-node tau rebuild for instance b. Only needed at construction;
  /// afterwards set_resistance keeps node_tau_/min_tau_ fresh incrementally.
  void rebuild_taus(std::size_t b);
  /// Recomputes node k's tau for instance b from its CSR row. The row holds
  /// the node's half-edges in edge-insertion order, so the conductance sum
  /// always adds the same addends in the same order.
  void refresh_node_tau(std::size_t k, std::size_t b);
  /// min over the cached per-node taus, in node order (fixed and
  /// zero-conductance nodes hold the 1e30 sentinel and never win).
  [[nodiscard]] double min_over_taus(std::size_t b) const;

  [[nodiscard]] double* row(AlignedVector<double>& v, std::size_t k) {
    return v.data() + k * instances_;
  }
  [[nodiscard]] const double* row(const AlignedVector<double>& v, std::size_t k) const {
    return v.data() + k * instances_;
  }

  // Shared structure.
  std::size_t node_count_ = 0;
  std::size_t instances_ = 0;
  std::vector<double> capacitance_;             // [K]; 0 marks a fixed node
  std::vector<std::uint8_t> fixed_;             // [K]
  std::vector<std::string> names_;              // [K]
  std::vector<std::size_t> csr_offset_;         // [K+1]
  std::vector<std::size_t> csr_neighbor_;       // [2E]
  std::vector<std::pair<std::size_t, std::size_t>> edge_slots_;  // [E]
  std::vector<std::pair<std::size_t, std::size_t>> edge_nodes_;  // [E]

  // Per-instance SoA state: node-major rows of length B, each array on a
  // cache-line boundary for the vectorized substep sweeps.
  AlignedVector<double> temp_;   // [K*B]
  AlignedVector<double> power_;  // [K*B]
  AlignedVector<double> cond_;   // [2E*B], slot-major rows
  AlignedVector<double> flux_;   // [K*B] scratch

  // Per-instance time constants, kept *always fresh*: set_resistance
  // refreshes only the touched edge's endpoint taus (node_tau_) and re-takes
  // the min, so a slewing fan costs O(degree) per step instead of a full
  // O(E+K) rescan. Each step plans its substeps from min_tau_.
  AlignedVector<double> node_tau_;  // [K*B]; 1e30 = never wins
  std::vector<double> min_tau_;     // [B]
};

}  // namespace thermctl::thermal
