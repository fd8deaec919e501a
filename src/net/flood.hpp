// Gnutella-style TTL-limited flooding (the BFS the paper uses to simulate
// the pure-voting poll and the content search) and the token-limited
// forwarding used by hiREP's trusted-agent-list request (Figure 4).  Both
// travel as typed envelopes through net::Transport, so every transmission
// lands in its envelope ledger and obeys its delivery policy; timed_flood
// is the Figure 8 queueing-model probe and counts nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/transport.hpp"
#include "util/rng.hpp"

namespace hirep::net {

struct FloodResult {
  /// Nodes reached (excluding the source), with their BFS depth (>= 1).
  std::vector<NodeIndex> reached;
  std::vector<std::uint32_t> depth;   ///< parallel to `reached`
  std::vector<NodeIndex> parent;      ///< BFS-tree predecessor, parallel to
                                      ///< `reached` (reverse-path hops)
  /// Forwarding transmissions performed, including duplicate deliveries —
  /// the real cost of flooding.
  std::uint64_t messages = 0;

  /// Node-indexed BFS-tree parents (kInvalidNode where unreached); the
  /// caller walks reached -> ... -> source to obtain a reply's hop path.
  std::vector<NodeIndex> parents_by_node(std::size_t node_count) const;
};

/// Floods from `source` with the given TTL.  A node forwards only the
/// first copy it sees, to all neighbors except the sender, while ttl > 0.
/// Each edge transmission is one single-hop `type` envelope, so the
/// delivery policy can drop/delay/duplicate individual copies (a dropped
/// copy never reaches its receiver; the node may still be reached by
/// another copy).  With InstantDelivery every copy lands.
FloodResult flood(Transport& transport, NodeIndex source, std::uint32_t ttl,
                  EnvelopeType type);

struct TimedArrival {
  NodeIndex node = kInvalidNode;
  NodeIndex parent = kInvalidNode;  ///< BFS-tree predecessor (reverse path)
  std::uint32_t depth = 0;
  double time_ms = 0.0;
};

/// Timed flooding over the queueing model: transmissions propagate in time
/// order (a global time-ordered expansion), and each node's serial
/// processing delays its forwards.  Returns first-copy arrival times.
std::vector<TimedArrival> timed_flood(Overlay& overlay, NodeIndex source,
                                      std::uint32_t ttl, double start_ms);

struct TokenVisit {
  NodeIndex node;
  std::uint32_t tokens_spent;
};

/// Token + TTL limited request propagation (Figure 4): the request fans out
/// from `source` carrying `tokens`; a node for which `consumes(node)` is
/// true uses up one token (it answers the request), and remaining tokens
/// are forwarded to unvisited neighbors (split across them).  Propagation
/// stops when tokens or TTL run out.  Returns the consuming nodes in visit
/// order.  Request forwards travel as kAgentListRequest envelopes (a
/// dropped forward loses its token share), and each consuming node's
/// answer returns to `source` as a kAgentListReply envelope (a dropped
/// reply consumes the token but never arrives).
std::vector<TokenVisit> token_walk(Transport& transport, util::Rng& rng,
                                   NodeIndex source, std::uint32_t tokens,
                                   std::uint32_t ttl,
                                   const std::function<bool(NodeIndex)>& consumes);

}  // namespace hirep::net
