#include "onion/relay.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "net/transport.hpp"

namespace hirep::onion {
namespace {

struct RelayFixture : ::testing::Test {
  RelayFixture()
      : rng(1),
        requestor(crypto::Identity::generate(rng, 128)),
        relay_identity(crypto::Identity::generate(rng, 128)),
        overlay(net::ring_lattice(8, 1), net::LatencyParams{}, 1),
        transport(&overlay, net::DeliveryConfig{}, 1) {}

  util::Rng rng;
  crypto::Identity requestor;
  crypto::Identity relay_identity;
  net::Overlay overlay;
  net::Transport transport;
};

TEST_F(RelayFixture, HonestHandshakeSucceeds) {
  HonestRelay relay(3, &relay_identity);
  const auto info = fetch_anonymity_key(transport, rng, requestor, 0, relay);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->ip, 3u);
  EXPECT_EQ(info->anonymity_key, relay_identity.anonymity_public());
}

TEST_F(RelayFixture, HandshakeCountsFourMessages) {
  HonestRelay relay(3, &relay_identity);
  fetch_anonymity_key(transport, rng, requestor, 0, relay);
  // Four one-hop kKeyExchange envelopes, each carrying its real bytes.
  const auto& sent = transport.envelopes().of(net::EnvelopeType::kKeyExchange);
  EXPECT_EQ(sent.hop_messages, 4u);
  EXPECT_EQ(sent.sent, 4u);
  EXPECT_EQ(sent.delivered, 4u);
  EXPECT_GT(sent.payload_bytes_delivered, 0u);
}

TEST_F(RelayFixture, LostHandshakeMessageFailsVerification) {
  // Every hop dropped: the request never reaches the relay, so no key is
  // taken and nothing after step 1 is sent.
  net::DeliveryConfig lossy;
  lossy.policy = net::DeliveryPolicyKind::kFaulty;
  lossy.faults.drop_rate = 1.0;
  net::Transport dropping(&overlay, lossy, 5);
  HonestRelay relay(3, &relay_identity);
  EXPECT_FALSE(
      fetch_anonymity_key(dropping, rng, requestor, 0, relay).has_value());
  const auto& sent = dropping.envelopes().of(net::EnvelopeType::kKeyExchange);
  EXPECT_EQ(sent.sent, 1u);
  EXPECT_EQ(sent.dropped, 1u);
}

// A relay that substitutes a key it does not control: it answers the key
// request with someone else's AP but cannot decrypt the verification.
class SubstitutingRelay final : public RelayEndpoint {
 public:
  SubstitutingRelay(net::NodeIndex ip, const crypto::Identity* claimed,
                    const crypto::Identity* actual)
      : ip_(ip), claimed_(claimed), actual_(actual) {}

  net::NodeIndex ip() const override { return ip_; }

  util::Bytes key_response(util::Rng& rng,
                           const crypto::RsaPublicKey& requestor_ap,
                           net::NodeIndex) override {
    util::ByteWriter w;
    w.u8(0x01);
    w.blob(claimed_->anonymity_public().serialize());
    w.u32(ip_);
    w.u64(rng());
    return crypto::rsa_encrypt_bytes(rng, requestor_ap, w.bytes());
  }

  std::optional<util::Bytes> key_confirm(util::Rng&,
                                         const util::Bytes& verification) override {
    // Tries to decrypt with the key it actually owns — fails.
    const auto plain =
        crypto::rsa_decrypt_bytes(actual_->anonymity_private(), verification);
    if (!plain) return std::nullopt;
    return std::nullopt;
  }

 private:
  net::NodeIndex ip_;
  const crypto::Identity* claimed_;
  const crypto::Identity* actual_;
};

TEST_F(RelayFixture, SubstitutedKeyRejected) {
  auto claimed = crypto::Identity::generate(rng, 128);
  SubstitutingRelay relay(3, &claimed, &relay_identity);
  const auto info = fetch_anonymity_key(transport, rng, requestor, 0, relay);
  EXPECT_FALSE(info.has_value());
}

// A relay that claims a different transport address than the one contacted.
class RedirectingRelay final : public RelayEndpoint {
 public:
  RedirectingRelay(net::NodeIndex real_ip, const crypto::Identity* identity)
      : real_ip_(real_ip), identity_(identity) {}

  net::NodeIndex ip() const override { return real_ip_; }

  util::Bytes key_response(util::Rng& rng,
                           const crypto::RsaPublicKey& requestor_ap,
                           net::NodeIndex) override {
    util::ByteWriter w;
    w.u8(0x01);
    w.blob(identity_->anonymity_public().serialize());
    w.u32(real_ip_ + 1);  // lies about its address
    w.u64(rng());
    return crypto::rsa_encrypt_bytes(rng, requestor_ap, w.bytes());
  }

  std::optional<util::Bytes> key_confirm(util::Rng&, const util::Bytes&) override {
    ADD_FAILURE() << "requestor should abort before step 3";
    return std::nullopt;
  }

 private:
  net::NodeIndex real_ip_;
  const crypto::Identity* identity_;
};

TEST_F(RelayFixture, AddressMismatchRejectedBeforeVerification) {
  RedirectingRelay relay(3, &relay_identity);
  EXPECT_FALSE(fetch_anonymity_key(transport, rng, requestor, 0, relay).has_value());
}

// A relay that replays a previous confirmation (wrong nonce).
class ReplayingRelay final : public RelayEndpoint {
 public:
  ReplayingRelay(net::NodeIndex ip, const crypto::Identity* identity)
      : inner_(ip, identity), identity_(identity) {}

  net::NodeIndex ip() const override { return inner_.ip(); }

  util::Bytes key_response(util::Rng& rng,
                           const crypto::RsaPublicKey& requestor_ap,
                           net::NodeIndex requestor_ip) override {
    requestor_ap_ = requestor_ap;
    return inner_.key_response(rng, requestor_ap, requestor_ip);
  }

  std::optional<util::Bytes> key_confirm(util::Rng& rng,
                                         const util::Bytes&) override {
    // Fabricates a confirmation with a made-up nonce instead of echoing
    // the one inside the verification message.
    util::ByteWriter w;
    w.u8(0x03);
    w.u32(inner_.ip());
    w.u64(0xdeadbeefULL);
    return crypto::rsa_encrypt_bytes(rng, requestor_ap_, w.bytes());
  }

 private:
  HonestRelay inner_;
  const crypto::Identity* identity_;
  crypto::RsaPublicKey requestor_ap_;
};

TEST_F(RelayFixture, WrongNonceConfirmationRejected) {
  ReplayingRelay relay(3, &relay_identity);
  EXPECT_FALSE(fetch_anonymity_key(transport, rng, requestor, 0, relay).has_value());
}

TEST_F(RelayFixture, SequentialHandshakesIndependent) {
  HonestRelay relay(3, &relay_identity);
  ASSERT_TRUE(fetch_anonymity_key(transport, rng, requestor, 0, relay).has_value());
  ASSERT_TRUE(fetch_anonymity_key(transport, rng, requestor, 0, relay).has_value());
}

}  // namespace
}  // namespace hirep::onion
