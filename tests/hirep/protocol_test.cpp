#include "hirep/protocol.hpp"

#include <gtest/gtest.h>

namespace hirep::core {
namespace {

struct ProtocolFixture : ::testing::Test {
  ProtocolFixture()
      : rng(1),
        peer(crypto::Identity::generate(rng, 128)),
        agent(crypto::Identity::generate(rng, 128)),
        subject(crypto::Identity::generate(rng, 128)) {}

  onion::Onion dummy_onion(const crypto::Identity& owner, std::uint64_t sq) {
    return onion::build_onion(rng, owner, 3, {}, sq);
  }

  /// The peer's request about `subject`, in the clear.
  TrustQuery query(std::uint64_t nonce, std::uint64_t sq) {
    TrustQuery q;
    q.subject = subject.node_id();
    q.nonce = nonce;
    q.requestor = peer.node_id();
    q.sp_p = peer.signature_public();
    q.reply_onion = dummy_onion(peer, sq);
    return q;
  }

  util::Rng rng;
  crypto::Identity peer;
  crypto::Identity agent;
  crypto::Identity subject;
  const CipherSuite& real = real_cipher_suite();
};

TEST_F(ProtocolFixture, TrustRequestRoundTrip) {
  const auto wire =
      real.seal_query(rng, agent.signature_public(), query(12345, 1));
  TrustQuery read;
  ASSERT_TRUE(real.open_query(agent, wire, read));
  EXPECT_EQ(read.subject, subject.node_id());
  EXPECT_EQ(read.nonce, 12345u);
  EXPECT_EQ(read.requestor, peer.node_id());
  EXPECT_EQ(read.sp_p, peer.signature_public());
}

TEST_F(ProtocolFixture, TrustRequestUnreadableByOthers) {
  const auto wire = real.seal_query(rng, agent.signature_public(), query(1, 1));
  // Only the agent's private key opens it — voter privacy vs third parties.
  TrustQuery read;
  EXPECT_FALSE(real.open_query(peer, wire, read));
  EXPECT_FALSE(real.open_query(subject, wire, read));
}

TEST_F(ProtocolFixture, TrustRequestSerializationRoundTrip) {
  const auto wire = real.seal_query(rng, agent.signature_public(), query(7, 2));
  const auto restored = SealedMessage::deserialize(wire);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->serialize(), wire);
  EXPECT_EQ(restored->sender_sp, peer.signature_public());
  TrustQuery read;
  ASSERT_TRUE(real.open_query(agent, restored->serialize(), read));
  EXPECT_EQ(read.nonce, 7u);
  EXPECT_TRUE(onion::verify_onion(read.reply_onion));
}

TEST_F(ProtocolFixture, TrustResponseRoundTrip) {
  const TrustAnswer answer{0.85, 99, dummy_onion(agent, 1)};
  const auto wire =
      real.seal_answer(rng, peer.signature_public(), agent, answer);
  TrustAnswer read;
  ASSERT_TRUE(real.open_answer(peer, wire, read));
  EXPECT_DOUBLE_EQ(read.value, 0.85);
  EXPECT_EQ(read.nonce, 99u);
  EXPECT_EQ(SealedMessage::deserialize(wire)->sender_sp,
            agent.signature_public());
}

TEST_F(ProtocolFixture, TrustResponseUnreadableByOthers) {
  const TrustAnswer answer{0.85, 99, dummy_onion(agent, 1)};
  const auto wire =
      real.seal_answer(rng, peer.signature_public(), agent, answer);
  TrustAnswer read;
  EXPECT_FALSE(real.open_answer(agent, wire, read));
}

TEST_F(ProtocolFixture, TrustResponseSerializationRoundTrip) {
  const TrustAnswer answer{0.25, 5, dummy_onion(agent, 3)};
  const auto wire =
      real.seal_answer(rng, peer.signature_public(), agent, answer);
  const auto restored = SealedMessage::deserialize(wire);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->serialize(), wire);
  TrustAnswer read;
  ASSERT_TRUE(real.open_answer(peer, restored->serialize(), read));
  EXPECT_DOUBLE_EQ(read.value, 0.25);
  EXPECT_EQ(read.report_onion.sq, 3u);
}

TEST_F(ProtocolFixture, ReportSignedAndVerifiable) {
  const auto report = build_report(peer, subject.node_id(), 1.0, 42);
  EXPECT_EQ(report.reporter, peer.node_id());
  const auto opened = verify_report(peer.signature_public(), report);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->subject, subject.node_id());
  EXPECT_DOUBLE_EQ(opened->outcome, 1.0);
  EXPECT_EQ(opened->nonce, 42u);
}

TEST_F(ProtocolFixture, ReportRejectsWrongVerificationKey) {
  const auto report = build_report(peer, subject.node_id(), 1.0, 42);
  // §3.5.3: the agent locates SP_p by nodeId; a mismatched key must fail.
  EXPECT_FALSE(verify_report(agent.signature_public(), report).has_value());
}

TEST_F(ProtocolFixture, ReportRejectsTamperedBody) {
  auto report = build_report(peer, subject.node_id(), 1.0, 42);
  report.body[report.body.size() - 1] ^= 0x01;
  EXPECT_FALSE(verify_report(peer.signature_public(), report).has_value());
}

TEST_F(ProtocolFixture, ReportRejectsTamperedSignature) {
  auto report = build_report(peer, subject.node_id(), 1.0, 42);
  report.signature[0] ^= 0x01;
  EXPECT_FALSE(verify_report(peer.signature_public(), report).has_value());
}

TEST_F(ProtocolFixture, ReportSerializationRoundTrip) {
  const auto report = build_report(peer, subject.node_id(), 0.0, 3);
  const auto restored = TransactionReport::deserialize(report.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->reporter, peer.node_id());
  EXPECT_TRUE(verify_report(peer.signature_public(), *restored).has_value());
}

TEST_F(ProtocolFixture, DeserializeRejectsGarbage) {
  const util::Bytes junk{1, 2, 3, 4};
  EXPECT_FALSE(SealedMessage::deserialize(junk).has_value());
  EXPECT_FALSE(TransactionReport::deserialize(junk).has_value());
}

TEST_F(ProtocolFixture, IdentitySpoofImpossible) {
  // The §4.2.2 spoofing scenario at protocol level: the "attacker" (agent
  // identity here) builds a report and stamps the peer's nodeId on it.
  auto forged = build_report(agent, subject.node_id(), 1.0, 9);
  forged.reporter = peer.node_id();
  // Verification against the claimed reporter's key fails.
  EXPECT_FALSE(verify_report(peer.signature_public(), forged).has_value());
}

TEST_F(ProtocolFixture, RealReportOpensOnlyForAKnownReporter) {
  const OpenedReport sent{subject.node_id(), 1.0};
  const auto wire = real.seal_report(rng, peer, sent);
  // §3.5.3: the agent finds SP_p by the nodeId on the wire.
  const auto key_list = [&](const crypto::NodeId& id)
      -> std::optional<crypto::RsaPublicKey> {
    if (id == peer.node_id()) return peer.signature_public();
    return std::nullopt;
  };
  OpenedReport read;
  ASSERT_TRUE(real.open_report(wire, key_list, read));
  EXPECT_EQ(read.subject, subject.node_id());
  EXPECT_DOUBLE_EQ(read.outcome, 1.0);
  const auto unknown = [](const crypto::NodeId&) {
    return std::optional<crypto::RsaPublicKey>{};
  };
  EXPECT_FALSE(real.open_report(wire, unknown, read));
}

TEST(NullCipherSuite, CarriesNoBytesAndDrawsNothing) {
  util::Rng rng(9);
  const auto peer = crypto::Identity::generate(rng, 64);
  const auto relay = crypto::Identity::generate(rng, 64);
  const CipherSuite& null = null_cipher_suite();
  util::Rng before = rng;

  const std::vector<onion::RelayInfo> relays{{6, relay.anonymity_public()}};
  const auto onion = null.issue_onion(rng, peer, 2, relays, 5);
  EXPECT_EQ(onion.entry, 6u);
  EXPECT_EQ(onion.sq, 5u);
  EXPECT_EQ(onion.relay_count, 1u);
  EXPECT_TRUE(onion.blob.empty());
  EXPECT_TRUE(onion.signature.empty());

  // Onion-routed sends travel the simulation-side path unchanged.
  onion::Router router([](net::NodeIndex) -> const crypto::Identity* {
    return nullptr;
  });
  const std::vector<net::NodeIndex> path{6, 2};
  std::vector<net::NodeIndex> peeled;
  EXPECT_EQ(null.route(router, onion, path, peeled), &path);

  // Every message is sealed to no bytes and read as the sender wrote it.
  TrustQuery query;
  query.nonce = 11;
  EXPECT_TRUE(null.seal_query(rng, peer.signature_public(), query).empty());
  EXPECT_TRUE(null.open_query(peer, {}, query));
  EXPECT_EQ(query.nonce, 11u);
  TrustAnswer answer{0.75, 11, onion};
  EXPECT_TRUE(
      null.seal_answer(rng, peer.signature_public(), peer, answer).empty());
  EXPECT_TRUE(null.open_answer(peer, {}, answer));
  EXPECT_DOUBLE_EQ(answer.value, 0.75);
  OpenedReport report{peer.node_id(), 1.0};
  EXPECT_TRUE(null.seal_report(rng, peer, report).empty());
  EXPECT_TRUE(null.open_report({}, {}, report));
  EXPECT_DOUBLE_EQ(report.outcome, 1.0);

  EXPECT_EQ(rng(), before());  // nothing was drawn
}

}  // namespace
}  // namespace hirep::core
