// The unstructured overlay: topology + latency model + a store-and-forward
// queueing model (each node handles messages serially with a fixed
// per-message processing cost).
//
// The overlay counts nothing: every counted message is an envelope carried
// by net::Transport, whose EnvelopeMetrics is the one traffic ledger
// (Figures 5–7).  The queueing functions below compute delivery
// timestamps for the Figure 8 response-time probes only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "net/latency.hpp"
#include "util/rng.hpp"

namespace hirep::net {

class Overlay {
 public:
  Overlay(Graph graph, LatencyParams latency, std::uint64_t seed);

  const Graph& graph() const noexcept { return graph_; }
  const LatencyModel& latency() const noexcept { return latency_; }
  std::size_t node_count() const noexcept { return graph_.node_count(); }

  /// Timed delivery of one message leaving `from` at `depart_ms` toward the
  /// directly-addressed `to` (overlay adjacency is NOT required: relays and
  /// agents are addressed by IP).  Models serial processing at the
  /// receiver: the message is handled at max(arrival, receiver-free) +
  /// processing.  Returns the handling-completion time and advances the
  /// receiver's busy-until state.
  double timed_send(double depart_ms, NodeIndex from, NodeIndex to);

  /// Timed traversal WITHOUT the queueing side effects: pure propagation +
  /// processing cost.  Use when hop events are generated out of global time
  /// order (e.g. independent onion circuits evaluated one after another) —
  /// the busy-until model is only meaningful for time-ordered event streams
  /// like timed_flood.
  double stateless_path(double depart_ms, const std::vector<NodeIndex>& path);

  /// Clears all busy-until state (start of a fresh timed experiment).
  void reset_time_state();

  /// Open membership: appends a node and wires it to `neighbors`.
  NodeIndex add_node(std::span<const NodeIndex> neighbors);

  /// Degree-weighted node sample (preferential attachment for joiners).
  NodeIndex sample_by_degree(util::Rng& rng) const;

 private:
  Graph graph_;
  LatencyModel latency_;
  std::vector<double> busy_until_;
};

}  // namespace hirep::net
