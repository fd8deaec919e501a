#include "net/flood.hpp"

#include <limits>
#include <queue>

namespace hirep::net {

std::vector<NodeIndex> FloodResult::parents_by_node(
    std::size_t node_count) const {
  std::vector<NodeIndex> by_node(node_count, kInvalidNode);
  for (std::size_t i = 0; i < reached.size(); ++i) {
    by_node[reached[i]] = parent[i];
  }
  return by_node;
}

FloodResult flood(Transport& transport, NodeIndex source, std::uint32_t ttl,
                  EnvelopeType type) {
  const Graph& g = transport.overlay().graph();
  FloodResult result;
  if (ttl == 0) return result;

  constexpr auto kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> depth(g.node_count(), kUnseen);
  depth[source] = 0;

  // BFS by rounds over the batched transport: every edge transmission of
  // one ring of the flood rides in one EnvelopeBatch.  Because a
  // sequential FIFO flood's frontier is strictly round-ordered and a node's
  // forwards are emitted in pop order, pushing round r's edges in that
  // same order keeps the delivery-policy stream hop-for-hop identical to
  // per-envelope sends (pinned by tests/net/transport_batch_test.cpp; the
  // FIFO reference lives in tests/net/sequential_reference.hpp).
  struct Tx {
    NodeIndex to;
    NodeIndex from;
    std::uint32_t hops;
  };
  std::vector<Tx> round;
  std::vector<Tx> next;
  EnvelopeBatch batch = transport.make_batch();

  for (NodeIndex nb : g.neighbors(source)) round.push_back({nb, source, 1});

  while (!round.empty()) {
    batch.clear();
    for (const Tx& tx : round) {
      batch.push(type, tx.from, std::span<const NodeIndex>(&tx.to, 1));
    }
    const auto receipts = transport.send_batch(batch);
    next.clear();
    for (std::size_t i = 0; i < round.size(); ++i) {
      result.messages += receipts[i].messages;
      // A dropped copy never enters the frontier.
      if (!receipts[i].delivered) continue;
      const Tx& tx = round[i];
      if (depth[tx.to] != kUnseen) continue;  // duplicate copy: dropped
      depth[tx.to] = tx.hops;
      result.reached.push_back(tx.to);
      result.depth.push_back(tx.hops);
      result.parent.push_back(tx.from);
      if (tx.hops >= ttl) continue;
      for (NodeIndex nb : g.neighbors(tx.to)) {
        if (nb == tx.from) continue;
        next.push_back({nb, tx.to, tx.hops + 1});
      }
    }
    round.swap(next);
  }
  return result;
}

std::vector<TimedArrival> timed_flood(Overlay& overlay, NodeIndex source,
                                      std::uint32_t ttl, double start_ms) {
  const Graph& g = overlay.graph();
  std::vector<TimedArrival> arrivals;
  if (ttl == 0) return arrivals;

  constexpr auto kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> depth(g.node_count(), kUnseen);
  depth[source] = 0;

  struct Transmission {
    double handled_ms;  // completion of receiver-side handling
    NodeIndex node;
    NodeIndex from;
    std::uint32_t hops;
  };
  struct Later {
    bool operator()(const Transmission& a, const Transmission& b) const noexcept {
      return a.handled_ms > b.handled_ms;
    }
  };
  std::priority_queue<Transmission, std::vector<Transmission>, Later> queue;

  for (NodeIndex nb : g.neighbors(source)) {
    const double t = overlay.timed_send(start_ms, source, nb);
    queue.push({t, nb, source, 1});
  }
  while (!queue.empty()) {
    const Transmission tx = queue.top();
    queue.pop();
    if (depth[tx.node] != kUnseen) continue;
    depth[tx.node] = tx.hops;
    arrivals.push_back({tx.node, tx.from, tx.hops, tx.handled_ms});
    if (tx.hops >= ttl) continue;
    for (NodeIndex nb : g.neighbors(tx.node)) {
      if (nb == tx.from) continue;
      const double t = overlay.timed_send(tx.handled_ms, tx.node, nb);
      queue.push({t, nb, tx.node, tx.hops + 1});
    }
  }
  return arrivals;
}

std::vector<TokenVisit> token_walk(Transport& transport, util::Rng& rng,
                                   NodeIndex source, std::uint32_t tokens,
                                   std::uint32_t ttl,
                                   const std::function<bool(NodeIndex)>& consumes) {
  const Graph& g = transport.overlay().graph();
  std::vector<TokenVisit> visits;
  if (tokens == 0 || ttl == 0) return visits;

  std::vector<bool> visited(g.node_count(), false);
  visited[source] = true;

  // Round-batched walk.  Each round plans its sends first — visiting
  // nodes, drawing the split shuffles from the caller's rng, computing
  // token shares — then ships every reply and forward of the round in one
  // EnvelopeBatch.  Neither visited[] nor the share arithmetic depends on
  // in-round delivery outcomes, and replies/forwards are planned in
  // exactly the per-node order a sequential FIFO walk sends them, so both
  // the caller's rng stream and the delivery-policy stream are
  // draw-for-draw identical to per-envelope sends.
  struct Pending {
    NodeIndex node;
    std::uint32_t tokens;
    std::uint32_t ttl;
  };
  struct Planned {
    bool reply;      ///< reply to the source vs forwarded share
    NodeIndex node;  ///< replying node, or the forward's receiver
    std::uint32_t tokens;
    std::uint32_t ttl;
  };
  EnvelopeBatch batch = transport.make_batch();
  std::vector<Planned> plan;
  std::vector<Pending> landed;

  // Splits `remaining` tokens across the unvisited neighbors of `from`
  // (Figure 4: even split of what is left across the rest) and plans one
  // forward per share.  A dropped forward loses the tokens it carried,
  // exactly like a lossy link.
  const auto plan_forwards = [&](NodeIndex from, std::uint32_t remaining,
                                 std::uint32_t ttl_left) {
    std::vector<NodeIndex> nbs;
    for (NodeIndex nb : g.neighbors(from)) {
      if (!visited[nb]) nbs.push_back(nb);
    }
    rng.shuffle(nbs);
    for (std::size_t i = 0; i < nbs.size() && remaining > 0; ++i) {
      const auto share = static_cast<std::uint32_t>(
          (remaining + nbs.size() - 1 - i) / (nbs.size() - i));
      batch.push(EnvelopeType::kAgentListRequest, from,
                 std::span<const NodeIndex>(&nbs[i], 1));
      plan.push_back({false, nbs[i], share, ttl_left});
      remaining -= share;
    }
  };

  // The source splits its token budget across its neighbors (Figure 4).
  plan_forwards(source, tokens, ttl);

  while (!plan.empty()) {
    const auto receipts = transport.send_batch(batch);
    landed.clear();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Planned& p = plan[i];
      if (p.reply) {
        // A dropped reply still consumed the node's token.
        if (receipts[i].delivered) visits.push_back({p.node, 1});
      } else if (receipts[i].delivered) {
        landed.push_back({p.node, p.tokens, p.ttl});
      }
    }
    plan.clear();
    for (const Pending& p : landed) {
      if (visited[p.node]) continue;  // duplicate copy: tokens lost with it
      visited[p.node] = true;
      std::uint32_t remaining = p.tokens;
      if (consumes(p.node) && remaining > 0) {
        // One token pays for this node's reply, returned directly to the
        // requestor.
        batch.push(EnvelopeType::kAgentListReply, p.node,
                   std::span<const NodeIndex>(&source, 1));
        plan.push_back({true, p.node, 0, 0});
        --remaining;
      }
      if (remaining == 0 || p.ttl <= 1) continue;
      plan_forwards(p.node, remaining, p.ttl - 1);
    }
  }
  return visits;
}

}  // namespace hirep::net
