// Message transport for the hierarchical control plane.
//
// QueueTransport is what the coordinators send through: endpoints send
// tagged-union Messages and poll their own inbox. It is in-process and
// queue-backed (the plane runs on the engine thread, serially at the BSP
// barrier). Delivery is per-destination FIFO and every message is a
// self-contained POD copy, so no shared state leaks between endpoints.
//
// Fault injection: QueueTransport can drop or reorder messages with seeded
// probabilities, which is how the verify fuzzer shakes the coordinators'
// loss tolerance (budget-as-heartbeat, stall failsafe, rejoin). With both
// rates at zero the RNG is never consumed and delivery is exactly FIFO, so
// a fault-free plane stays bit-reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/coordinator/protocol.hpp"
#include "common/rng.hpp"

namespace thermctl::cluster::ctrl {

struct QueueTransportConfig {
  /// Probability a sent message silently vanishes.
  double drop_rate = 0.0;
  /// Probability a delivered message is swapped with its inbox successor
  /// (adjacent transposition — enough to exercise stale-seq handling
  /// without modelling a full adversarial scheduler).
  double reorder_rate = 0.0;
  std::uint64_t seed = 0x7ca9'0913ULL;
};

/// In-process transport: one FIFO deque per endpoint.
class QueueTransport {
 public:
  explicit QueueTransport(std::size_t endpoints, QueueTransportConfig config = {});

  /// Queues `m` toward `m.to`, stamping `m.seq`. Returns false if the
  /// transport refused it (an injected drop): senders treat that the same
  /// as network loss and must not retry synchronously.
  bool send(Message m);

  /// Pops the next message addressed to `inbox`, in delivery order.
  /// Returns false when the inbox is empty.
  bool poll(Endpoint inbox, Message& out);

  [[nodiscard]] std::size_t pending(Endpoint inbox) const;
  [[nodiscard]] std::uint64_t sent() const { return next_seq_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }

 private:
  [[nodiscard]] bool faults_enabled() const {
    return config_.drop_rate > 0.0 || config_.reorder_rate > 0.0;
  }

  QueueTransportConfig config_;
  std::vector<std::deque<Message>> inboxes_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace thermctl::cluster::ctrl
