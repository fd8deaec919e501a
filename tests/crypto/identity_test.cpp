#include "crypto/identity.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hirep::crypto {
namespace {

TEST(NodeId, IsHashOfSignatureKey) {
  util::Rng rng(1);
  const auto id = Identity::generate(rng, 96);
  const auto expected = Sha1::hash(id.signature_public().serialize());
  EXPECT_EQ(id.node_id().bytes, expected);
}

TEST(NodeId, DistinctIdentitiesDistinctIds) {
  util::Rng rng(2);
  const auto a = Identity::generate(rng, 96);
  const auto b = Identity::generate(rng, 96);
  EXPECT_NE(a.node_id(), b.node_id());
}

TEST(NodeId, HexRendering) {
  util::Rng rng(3);
  const auto id = Identity::generate(rng, 64);
  EXPECT_EQ(id.node_id().to_hex().size(), 40u);  // 160 bits
  EXPECT_EQ(id.node_id().short_hex(8).size(), 8u + std::string("…").size());
}

TEST(NodeId, OfKeyBindsKey) {
  util::Rng rng(4);
  const auto a = Identity::generate(rng, 96);
  const auto b = Identity::generate(rng, 96);
  EXPECT_EQ(NodeId::of_key(a.signature_public()), a.node_id());
  // An attacker cannot claim a's nodeId with b's key.
  EXPECT_NE(NodeId::of_key(b.signature_public()), a.node_id());
}

TEST(NodeIdHash, UsableInUnorderedContainers) {
  util::Rng rng(5);
  const auto a = Identity::generate(rng, 64);
  NodeIdHash h;
  EXPECT_EQ(h(a.node_id()), h(a.node_id()));
}

TEST(Identity, SignVerifyOwn) {
  util::Rng rng(6);
  const auto id = Identity::generate(rng, 128);
  const util::Bytes msg{1, 2, 3};
  const auto sig = id.sign(msg);
  EXPECT_TRUE(id.verify_own(msg, sig));
  EXPECT_FALSE(id.verify_own(util::Bytes{1, 2, 4}, sig));
}

TEST(Identity, AnonymityAndSignatureKeysDiffer) {
  util::Rng rng(7);
  const auto id = Identity::generate(rng, 96);
  EXPECT_NE(id.signature_public(), id.anonymity_public());
}

TEST(Identity, RotationProducesVerifiableAnnouncement) {
  util::Rng rng(8);
  auto id = Identity::generate(rng, 96);
  const auto old_key = id.signature_public();
  const auto old_id = id.node_id();

  const auto ann = id.rotate_signature_key(rng, 96);
  EXPECT_EQ(ann.old_id, old_id);
  EXPECT_TRUE(Identity::verify_rotation(old_key, ann));
  // The identity has moved to the new key.
  EXPECT_EQ(id.node_id(), NodeId::of_key(ann.new_signature_public));
  EXPECT_NE(id.node_id(), old_id);
}

TEST(Identity, RotationForgedByOtherKeyRejected) {
  util::Rng rng(9);
  auto victim = Identity::generate(rng, 96);
  auto attacker = Identity::generate(rng, 96);
  // Attacker crafts an announcement claiming the victim rotates to the
  // attacker's key — but can only sign with its own SR.
  Identity::RotationAnnouncement forged;
  forged.old_id = victim.node_id();
  forged.new_signature_public = attacker.signature_public();
  forged.signature = attacker.sign(attacker.signature_public().serialize());
  EXPECT_FALSE(Identity::verify_rotation(victim.signature_public(), forged));
}

TEST(Identity, RotationAnnouncementSerializationRoundTrip) {
  util::Rng rng(10);
  auto id = Identity::generate(rng, 96);
  const auto old_key = id.signature_public();
  const auto ann = id.rotate_signature_key(rng, 96);
  const auto bytes = ann.serialize();
  const auto restored = Identity::RotationAnnouncement::deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->old_id, ann.old_id);
  EXPECT_EQ(restored->new_signature_public, ann.new_signature_public);
  EXPECT_TRUE(Identity::verify_rotation(old_key, *restored));
}

TEST(Identity, RotationDeserializeRejectsGarbage) {
  EXPECT_FALSE(Identity::RotationAnnouncement::deserialize(util::Bytes{1, 2})
                   .has_value());
}

TEST(Identity, ChainedRotations) {
  util::Rng rng(11);
  auto id = Identity::generate(rng, 96);
  auto key0 = id.signature_public();
  const auto ann1 = id.rotate_signature_key(rng, 96);
  auto key1 = id.signature_public();
  const auto ann2 = id.rotate_signature_key(rng, 96);
  // Each link verifies against its predecessor's key.
  EXPECT_TRUE(Identity::verify_rotation(key0, ann1));
  EXPECT_TRUE(Identity::verify_rotation(key1, ann2));
  // But not across links.
  EXPECT_FALSE(Identity::verify_rotation(key0, ann2));
}

// Known answers captured before keygen gained its single-limb prime path:
// consecutive identities drawn from one seeded stream, so each id also pins
// every draw its predecessors' two key pairs made.
TEST(Identity, GeneratedNodeIdsMatchKnownAnswers) {
  const auto ids = [](unsigned bits) {
    util::Rng rng(2006);
    std::vector<std::string> out;
    for (int i = 0; i < 4; ++i) {
      out.push_back(Identity::generate(rng, bits).node_id().to_hex());
    }
    return out;
  };
  EXPECT_EQ(ids(64), (std::vector<std::string>{
                         "038bb4c9b025fd5086608e171a2278bf541b1cdf",
                         "668002f68056b6a891824fc08a77ec6b6eb1db84",
                         "382bea9cb47b6aad750043b66df4d4895ea5c95d",
                         "3787c7ff98d8f04215b55ce0af7fe33deca80be6",
                     }));
  EXPECT_EQ(ids(128), (std::vector<std::string>{
                          "77a8f9084a6abb0db64a273cc0937054913ad1c2",
                          "4153d13aefcd9ee8fa5ec949b61fee270bf062c9",
                          "83007c4877a3e34c99afbccb4c7534f52e03340c",
                          "882a062ed1890945a623ef731e7d178779b8abfe",
                      }));
}

}  // namespace
}  // namespace hirep::crypto
