// Sequential reference forms of the transport-routed flood and token walk:
// a FIFO frontier that visits one copy at a time and only counts its
// transmissions.  The library's batched versions (net/flood.hpp) must match
// these transmission for transmission under InstantDelivery, and the
// determinism tests compare against them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "net/flood.hpp"
#include "net/graph.hpp"
#include "util/rng.hpp"

namespace hirep::net::reference {

/// TTL flood from `source`: a node forwards only the first copy it sees, to
/// all neighbors except the sender, while ttl > 0.  `messages` counts every
/// transmission, duplicate deliveries included.
inline FloodResult flood(const Graph& g, NodeIndex source, std::uint32_t ttl) {
  FloodResult result;
  if (ttl == 0) return result;

  constexpr auto kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> depth(g.node_count(), kUnseen);
  depth[source] = 0;

  struct Pending {
    NodeIndex node;
    NodeIndex from;
    std::uint32_t hops;  // hops taken so far
  };
  std::deque<Pending> frontier;

  // Source transmits to every neighbor.
  for (NodeIndex nb : g.neighbors(source)) {
    ++result.messages;
    frontier.push_back({nb, source, 1});
  }

  while (!frontier.empty()) {
    const Pending p = frontier.front();
    frontier.pop_front();
    if (depth[p.node] != kUnseen) continue;  // duplicate copy: counted, dropped
    depth[p.node] = p.hops;
    result.reached.push_back(p.node);
    result.depth.push_back(p.hops);
    result.parent.push_back(p.from);
    if (p.hops >= ttl) continue;  // TTL exhausted: no forward
    for (NodeIndex nb : g.neighbors(p.node)) {
      if (nb == p.from) continue;
      ++result.messages;
      frontier.push_back({nb, p.node, p.hops + 1});
    }
  }
  return result;
}

struct TokenWalkResult {
  std::vector<TokenVisit> visits;
  std::uint64_t messages = 0;  ///< forwards plus replies
};

/// Token + TTL limited walk (Figure 4): the source splits `tokens` evenly
/// across its shuffled unvisited neighbors; a consuming node spends one
/// token on a reply to the source and forwards the rest the same way while
/// ttl remains.  Draws one shuffle per splitting node from `rng`.
inline TokenWalkResult token_walk(
    const Graph& g, util::Rng& rng, NodeIndex source, std::uint32_t tokens,
    std::uint32_t ttl, const std::function<bool(NodeIndex)>& consumes) {
  TokenWalkResult result;
  if (tokens == 0 || ttl == 0) return result;

  std::vector<bool> visited(g.node_count(), false);
  visited[source] = true;

  struct Pending {
    NodeIndex node;
    std::uint32_t tokens;
    std::uint32_t ttl;
  };
  std::deque<Pending> frontier;

  // Even split of what is left across the rest of the shuffled neighbors.
  const auto forward = [&](NodeIndex from, std::uint32_t remaining,
                           std::uint32_t ttl_left) {
    std::vector<NodeIndex> nbs;
    for (NodeIndex nb : g.neighbors(from)) {
      if (!visited[nb]) nbs.push_back(nb);
    }
    rng.shuffle(nbs);
    for (std::size_t i = 0; i < nbs.size() && remaining > 0; ++i) {
      const auto share = static_cast<std::uint32_t>(
          (remaining + nbs.size() - 1 - i) / (nbs.size() - i));
      ++result.messages;
      frontier.push_back({nbs[i], share, ttl_left});
      remaining -= share;
    }
  };

  forward(source, tokens, ttl);
  while (!frontier.empty()) {
    const Pending p = frontier.front();
    frontier.pop_front();
    // A later copy reaching a visited node loses its tokens with it.
    if (visited[p.node]) continue;
    visited[p.node] = true;
    std::uint32_t remaining = p.tokens;
    if (consumes(p.node) && remaining > 0) {
      // One token pays for this node's reply to the requestor.
      result.visits.push_back({p.node, 1});
      ++result.messages;
      --remaining;
    }
    if (remaining == 0 || p.ttl <= 1) continue;
    forward(p.node, remaining, p.ttl - 1);
  }
  return result;
}

}  // namespace hirep::net::reference
