#include "hirep/peer.hpp"

#include <gtest/gtest.h>

#include "hirep/protocol.hpp"

namespace hirep::core {
namespace {

ListParams params() {
  ListParams p;
  p.capacity = 5;
  return p;
}

TEST(PeerAggregate, EmptyIsNeutralPrior) {
  EXPECT_DOUBLE_EQ(Peer::aggregate({}), 0.5);
}

TEST(PeerAggregate, WeightedMean) {
  // values 1.0 (weight 3) and 0.0 (weight 1) -> 0.75
  EXPECT_DOUBLE_EQ(Peer::aggregate({{1.0, 3.0}, {0.0, 1.0}}), 0.75);
}

TEST(PeerAggregate, ZeroWeightsFallBackToPlainMean) {
  EXPECT_DOUBLE_EQ(Peer::aggregate({{1.0, 0.0}, {0.0, 0.0}}), 0.5);
  EXPECT_DOUBLE_EQ(Peer::aggregate({{0.8, 0.0}}), 0.8);
}

TEST(PeerAggregate, SingleRating) {
  EXPECT_DOUBLE_EQ(Peer::aggregate({{0.9, 0.7}}), 0.9);
}

TEST(PeerConsistency, SameSideOfHalf) {
  EXPECT_TRUE(Peer::consistent(0.8, 1.0));   // good rating, good outcome
  EXPECT_TRUE(Peer::consistent(0.2, 0.0));   // bad rating, bad outcome
  EXPECT_FALSE(Peer::consistent(0.8, 0.0));  // praised a bad provider
  EXPECT_FALSE(Peer::consistent(0.2, 1.0));  // slandered a good provider
}

TEST(Peer, RelayPathEndsAtOwner) {
  util::Rng rng(1);
  const auto identity = crypto::Identity::generate(rng, 64);
  Peer peer(&identity, 7, params());
  std::vector<onion::RelayInfo> relays;
  std::vector<crypto::Identity> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(crypto::Identity::generate(rng, 64));
    relays.push_back({static_cast<net::NodeIndex>(10 + i),
                      ids.back().anonymity_public()});
  }
  peer.set_relays(relays);
  const auto path = peer.relay_path();
  // Wire order: entry relay (last picked) first, owner last.
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], 12u);
  EXPECT_EQ(path[1], 11u);
  EXPECT_EQ(path[2], 10u);
  EXPECT_EQ(path[3], 7u);
}

TEST(Peer, RelayPathWithoutRelaysIsJustOwner) {
  util::Rng rng(2);
  const auto identity = crypto::Identity::generate(rng, 64);
  Peer peer(&identity, 3, params());
  const auto path = peer.relay_path();
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 3u);
}

TEST(Peer, SequenceNumbersNonDecreasing) {
  util::Rng rng(3);
  const auto identity = crypto::Identity::generate(rng, 64);
  Peer peer(&identity, 0, params());
  const auto a = peer.next_sq();
  const auto b = peer.next_sq();
  EXPECT_GT(b, a);
  const auto onion1 = peer.issue_onion(rng, real_cipher_suite());
  const auto onion2 = peer.issue_onion(rng, real_cipher_suite());
  EXPECT_GT(onion2.sq, onion1.sq);
}

TEST(Peer, TransactionCounter) {
  util::Rng rng(4);
  const auto identity = crypto::Identity::generate(rng, 64);
  Peer peer(&identity, 0, params());
  EXPECT_EQ(peer.transactions(), 0u);
  peer.note_transaction();
  peer.note_transaction();
  EXPECT_EQ(peer.transactions(), 2u);
}

TEST(Peer, IssuedOnionVerifies) {
  util::Rng rng(5);
  const auto identity = crypto::Identity::generate(rng, 128);
  Peer peer(&identity, 4, params());
  const auto onion = peer.issue_onion(rng, real_cipher_suite());
  EXPECT_TRUE(onion::verify_onion(onion));
  EXPECT_EQ(onion.owner_sig_key, identity.signature_public());
  EXPECT_EQ(onion.entry, 4u);  // no relays: owner is the entry
}

}  // namespace
}  // namespace hirep::core
