#include "onion/router.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "net/transport.hpp"

namespace hirep::onion {
namespace {

struct RouterFixture : ::testing::Test {
  RouterFixture()
      : rng(3),
        overlay(net::ring_lattice(8, 1), net::LatencyParams{}, 1),
        transport(&overlay, net::DeliveryConfig{}, 1) {
    for (int i = 0; i < 8; ++i) {
      identities.push_back(crypto::Identity::generate(rng, 128));
    }
    router = std::make_unique<Router>(&identities);
  }

  std::vector<RelayInfo> relay_infos(std::initializer_list<net::NodeIndex> ips) {
    std::vector<RelayInfo> out;
    for (auto ip : ips) out.push_back({ip, identities[ip].anonymity_public()});
    return out;
  }

  /// Sends `payload` from node 0 over `onion` the way the system does: the
  /// router peels the hop path, the transport carries the payload along it.
  net::DeliveryReceipt route(const Onion& onion, util::Bytes payload = {}) {
    const auto path = router->peel_path(onion);
    if (!path) return {};
    return transport.send(net::EnvelopeType::kProbe, 0, *path,
                          std::move(payload));
  }

  util::Rng rng;
  net::Overlay overlay;
  net::Transport transport;
  std::vector<crypto::Identity> identities;
  std::unique_ptr<Router> router;
};

TEST_F(RouterFixture, DeliversThroughRelays) {
  // Owner 5, relays 1 (adjacent) then 2 then 3 (entry).
  const auto onion = build_onion(rng, identities[5], 5, relay_infos({1, 2, 3}), 1);
  EXPECT_EQ(router->peel_path(onion),
            (std::vector<net::NodeIndex>{3, 2, 1, 5}));
  const util::Bytes payload{0xaa, 0xbb};
  const auto result = route(onion, payload);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.destination, 5u);
  EXPECT_EQ(result.hops, 4u);  // sender->3->2->1->5
  EXPECT_EQ(result.payload, payload);
  EXPECT_EQ(transport.envelopes().of(net::EnvelopeType::kProbe).hop_messages,
            4u);
}

TEST_F(RouterFixture, ZeroRelayOnionDeliversDirect) {
  const auto onion = build_onion(rng, identities[5], 5, {}, 1);
  EXPECT_EQ(router->peel_path(onion), (std::vector<net::NodeIndex>{5}));
  const auto result = route(onion);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.hops, 1u);
}

TEST_F(RouterFixture, BadSignatureRejectedWithoutTraffic) {
  auto onion = build_onion(rng, identities[5], 5, relay_infos({1, 2}), 1);
  onion.blob[0] ^= 1;
  EXPECT_FALSE(router->peel_path(onion).has_value());
  EXPECT_FALSE(route(onion).delivered);
  EXPECT_EQ(transport.envelopes().total_hop_messages(), 0u);
}

TEST_F(RouterFixture, DifferentAgesRouteUntilRevocation) {
  // Two holders with onions of different ages: both route.
  const auto older = build_onion(rng, identities[5], 5, relay_infos({1}), 1);
  const auto newer = build_onion(rng, identities[5], 5, relay_infos({2}), 2);
  EXPECT_TRUE(route(newer).delivered);
  EXPECT_TRUE(route(older).delivered);
}

TEST_F(RouterFixture, RevokedSequenceRejected) {
  const auto stale = build_onion(rng, identities[5], 5, relay_infos({1}), 1);
  const auto fresh = build_onion(rng, identities[5], 5, relay_infos({2}), 2);
  // The owner refreshes its onions and revokes everything older.
  router->sequence_guard().revoke_before(identities[5].node_id(), 2);
  EXPECT_TRUE(route(fresh).delivered);
  EXPECT_FALSE(route(stale).delivered);
}

TEST_F(RouterFixture, EqualSequenceStillRoutes) {
  const auto a = build_onion(rng, identities[5], 5, relay_infos({1}), 7);
  EXPECT_TRUE(route(a).delivered);
  EXPECT_TRUE(route(a).delivered);
}

TEST_F(RouterFixture, RouteWithForeignGuardOwnersIndependent) {
  const auto a = build_onion(rng, identities[4], 4, relay_infos({1}), 1);
  const auto b = build_onion(rng, identities[5], 5, relay_infos({2}), 1);
  EXPECT_TRUE(route(a).delivered);
  EXPECT_TRUE(route(b).delivered);
}

TEST(PickRelayIps, ExcludesOwnerAndDuplicates) {
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto ips = pick_relay_ips(rng, 20, 5, 7);
    EXPECT_EQ(ips.size(), 5u);
    std::set<net::NodeIndex> unique(ips.begin(), ips.end());
    EXPECT_EQ(unique.size(), 5u);
    EXPECT_EQ(unique.count(7), 0u);
  }
}

TEST(PickRelayIps, ClampsWhenAskingTooMany) {
  util::Rng rng(6);
  const auto ips = pick_relay_ips(rng, 4, 10, 0);
  EXPECT_EQ(ips.size(), 3u);  // everyone but the owner
}

}  // namespace
}  // namespace hirep::onion
