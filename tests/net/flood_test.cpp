#include "net/flood.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/topology.hpp"

namespace hirep::net {
namespace {

Overlay ring_overlay(std::size_t nodes, std::size_t k = 1) {
  return Overlay(ring_lattice(nodes, k), LatencyParams{}, 1);
}

/// An overlay plus an instant transport over it: every copy lands.
struct Instant {
  explicit Instant(Overlay overlay_in)
      : overlay(std::move(overlay_in)),
        transport(&overlay, DeliveryConfig{}, 1) {}
  Overlay overlay;
  Transport transport;
};

TEST(Flood, RingReachWithinTtl) {
  Instant net(ring_overlay(20));
  const auto r = flood(net.transport, 0, 3, EnvelopeType::kVotePoll);
  // Ring degree 2: TTL 3 reaches 3 nodes on each side.
  EXPECT_EQ(r.reached.size(), 6u);
  for (std::size_t i = 0; i < r.reached.size(); ++i) {
    EXPECT_GE(r.depth[i], 1u);
    EXPECT_LE(r.depth[i], 3u);
  }
}

TEST(Flood, RingMessageCountExact) {
  Instant net(ring_overlay(20));
  const auto r = flood(net.transport, 0, 3, EnvelopeType::kVotePoll);
  // Source sends 2; each newly reached node (6 of them) forwards 1 copy
  // onward while TTL remains: depth-1 and depth-2 nodes forward (4 nodes),
  // depth-3 nodes do not.
  EXPECT_EQ(r.messages, 2u + 4u);
  const auto& ledger = net.transport.envelopes();
  EXPECT_EQ(ledger.of(EnvelopeType::kVotePoll).hop_messages, r.messages);
  EXPECT_EQ(ledger.total_hop_messages(), r.messages);
}

TEST(Flood, TtlZeroReachesNothing) {
  Instant net(ring_overlay(10));
  const auto r = flood(net.transport, 0, 0, EnvelopeType::kVotePoll);
  EXPECT_TRUE(r.reached.empty());
  EXPECT_EQ(r.messages, 0u);
}

TEST(Flood, FullCoverageWithLargeTtl) {
  Instant net(ring_overlay(16, 2));
  const auto r = flood(net.transport, 3, 16, EnvelopeType::kVotePoll);
  EXPECT_EQ(r.reached.size(), 15u);  // everyone but the source
  std::set<NodeIndex> unique(r.reached.begin(), r.reached.end());
  EXPECT_EQ(unique.size(), 15u);
  EXPECT_EQ(unique.count(3), 0u);  // source not in reached set
}

TEST(Flood, DepthsMatchBfsDistances) {
  util::Rng rng(4);
  Instant net(Overlay(power_law(rng, 200, 4.0), LatencyParams{}, 2));
  const auto dist = net.overlay.graph().bfs_distances(7);
  const auto r = flood(net.transport, 7, 4, EnvelopeType::kVotePoll);
  for (std::size_t i = 0; i < r.reached.size(); ++i) {
    EXPECT_EQ(r.depth[i], dist[r.reached[i]]);
  }
}

TEST(TimedFlood, ArrivalTimesIncreaseWithDepth) {
  auto ov = ring_overlay(30);
  const auto arrivals = timed_flood(ov, 0, 5, 0.0);
  EXPECT_EQ(arrivals.size(), 10u);
  for (const auto& a : arrivals) {
    EXPECT_GT(a.time_ms, 0.0);
    // Each hop costs at least min-latency + processing.
    EXPECT_GE(a.time_ms, a.depth * (10.0 + 1.0) - 1e-9);
  }
}

TEST(TimedFlood, ParentsFormTreeTowardSource) {
  util::Rng rng(5);
  Overlay ov(power_law(rng, 100, 4.0), LatencyParams{}, 3);
  const auto arrivals = timed_flood(ov, 0, 4, 0.0);
  std::vector<NodeIndex> parent(ov.node_count(), kInvalidNode);
  for (const auto& a : arrivals) parent[a.node] = a.parent;
  for (const auto& a : arrivals) {
    // Walking parents must terminate at the source within depth steps.
    NodeIndex at = a.node;
    std::uint32_t steps = 0;
    while (at != 0 && steps <= a.depth) {
      at = parent[at];
      ASSERT_NE(at, kInvalidNode);
      ++steps;
    }
    EXPECT_EQ(at, 0u);
  }
}

TEST(TokenWalk, ConsumesAtMostTokens) {
  Instant net(ring_overlay(50, 2));
  util::Rng rng(6);
  const auto visits = token_walk(net.transport, rng, 0, 5, 10,
                                 [](NodeIndex) { return true; });
  EXPECT_LE(visits.size(), 5u);
  EXPECT_GE(visits.size(), 1u);
}

TEST(TokenWalk, SkipsNonConsumers) {
  Instant net(ring_overlay(50, 2));
  util::Rng rng(7);
  // Only even nodes answer.
  const auto visits = token_walk(net.transport, rng, 1, 4, 20,
                                 [](NodeIndex v) { return v % 2 == 0; });
  EXPECT_FALSE(visits.empty());
  for (const auto& v : visits) EXPECT_EQ(v.node % 2, 0u);
  // Nobody answers: the request still travels, but no reply comes back.
  Instant quiet(ring_overlay(10, 1));
  EXPECT_TRUE(token_walk(quiet.transport, rng, 0, 5, 5,
                         [](NodeIndex) { return false; })
                  .empty());
  const auto& ledger = quiet.transport.envelopes();
  EXPECT_GT(ledger.of(EnvelopeType::kAgentListRequest).hop_messages, 0u);
  EXPECT_EQ(ledger.of(EnvelopeType::kAgentListReply).hop_messages, 0u);
}

TEST(TokenWalk, ZeroTokensOrTtlNoVisits) {
  Instant net(ring_overlay(20));
  util::Rng rng(8);
  EXPECT_TRUE(
      token_walk(net.transport, rng, 0, 0, 5, [](NodeIndex) { return true; })
          .empty());
  EXPECT_TRUE(
      token_walk(net.transport, rng, 0, 5, 0, [](NodeIndex) { return true; })
          .empty());
  EXPECT_EQ(net.transport.envelopes().total_sent(), 0u);
}

TEST(TokenWalk, TtlBoundsReach) {
  Instant net(ring_overlay(100));
  util::Rng rng(9);
  // Ring with TTL 2 from node 0: only nodes within 2 hops can answer.
  const auto visits = token_walk(net.transport, rng, 0, 50, 2,
                                 [](NodeIndex) { return true; });
  for (const auto& v : visits) {
    const bool near = v.node <= 2 || v.node >= 98;
    EXPECT_TRUE(near) << "node " << v.node << " beyond TTL";
  }
}

TEST(TokenWalk, CountsTraffic) {
  Instant net(ring_overlay(30, 2));
  util::Rng rng(10);
  const auto visits = token_walk(net.transport, rng, 0, 5, 5,
                                 [](NodeIndex) { return true; });
  const auto& ledger = net.transport.envelopes();
  EXPECT_GT(ledger.of(EnvelopeType::kAgentListRequest).hop_messages, 0u);
  // One reply per consuming node, straight back to the source.
  EXPECT_EQ(ledger.of(EnvelopeType::kAgentListReply).hop_messages,
            visits.size());
}

}  // namespace
}  // namespace hirep::net
