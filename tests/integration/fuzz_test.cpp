// Failure injection / fuzzing: every deserializer and decryptor must
// reject arbitrary garbage, truncations, and single-bit corruptions
// without crashing and without false acceptance.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "crypto/identity.hpp"
#include "hirep/protocol.hpp"
#include "onion/onion.hpp"

namespace hirep {
namespace {

util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Fuzz, DeserializersSurviveRandomGarbage) {
  util::Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const auto junk = random_bytes(rng, rng.below(200));
    // None of these may throw; all should reject (or, astronomically
    // unlikely, parse into a syntactically valid but useless object).
    EXPECT_NO_THROW(core::SealedMessage::deserialize(junk));
    EXPECT_NO_THROW(core::TransactionReport::deserialize(junk));
    EXPECT_NO_THROW(onion::Onion::deserialize(junk));
    EXPECT_NO_THROW(crypto::Identity::RotationAnnouncement::deserialize(junk));
  }
}

TEST(Fuzz, TruncationsOfValidMessagesRejected) {
  util::Rng rng(2);
  const auto peer = crypto::Identity::generate(rng, 64);
  const auto agent = crypto::Identity::generate(rng, 64);
  const auto onion = onion::build_onion(rng, peer, 3, {}, 1);
  core::TrustQuery query;
  query.subject = agent.node_id();
  query.nonce = 7;
  query.sp_p = peer.signature_public();
  query.reply_onion = onion;
  const auto& suite = core::real_cipher_suite();
  const auto wire = suite.seal_query(rng, agent.signature_public(), query);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const util::Bytes cut(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(len));
    const auto parsed = core::SealedMessage::deserialize(cut);
    EXPECT_FALSE(parsed.has_value()) << "accepted truncation at " << len;
    core::TrustQuery read;
    EXPECT_FALSE(suite.open_query(agent, cut, read))
        << "opened truncation at " << len;
  }
}

TEST(Fuzz, BitflippedReportsNeverVerify) {
  util::Rng rng(3);
  const auto reporter = crypto::Identity::generate(rng, 128);
  const auto subject = crypto::Identity::generate(rng, 64);
  const auto report = core::build_report(reporter, subject.node_id(), 1.0, 42);
  const auto wire = report.serialize();
  // The reporter id lives outside the signed body, so a flip there leaves
  // the signature valid; the invariant layer must flag exactly those
  // acceptances (nodeId no longer matches the verifying key).
  check::ScopedCapture capture;
  std::size_t mismatched_accepts = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = wire;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    const auto parsed = core::TransactionReport::deserialize(corrupted);
    if (!parsed) continue;  // framing broke: fine
    // Framing survived: the signature (or reporter id) check must fail —
    // unless the flip landed in the unsigned nonce-free reporter field, in
    // which case verification against the *claimed* reporter's key is the
    // caller's job and the signature still fails for the true key.
    const auto opened = core::verify_report(reporter.signature_public(), *parsed);
    if (opened.has_value()) {
      // Only acceptable when the corruption hit the reporter-id field,
      // which is outside the signed body; the body itself must be intact.
      EXPECT_EQ(parsed->body, report.body);
      EXPECT_NE(parsed->reporter, report.reporter);
      ++mismatched_accepts;
    }
  }
  if (check::kEnabled && mismatched_accepts > 0) {
    EXPECT_TRUE(capture.fired("protocol.report.binding"));
    EXPECT_EQ(capture.count(), mismatched_accepts);
  }
}

TEST(Fuzz, BitflippedOnionsNeverRoute) {
  util::Rng rng(4);
  const auto owner = crypto::Identity::generate(rng, 128);
  std::vector<crypto::Identity> relays_ids;
  std::vector<onion::RelayInfo> relays;
  for (int i = 0; i < 3; ++i) {
    relays_ids.push_back(crypto::Identity::generate(rng, 128));
    relays.push_back({static_cast<net::NodeIndex>(i),
                      relays_ids.back().anonymity_public()});
  }
  const auto onion = onion::build_onion(rng, owner, 5, relays, 1);
  const auto wire = onion.serialize();
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = wire;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    const auto parsed = onion::Onion::deserialize(corrupted);
    if (!parsed) continue;
    if (onion::verify_onion(*parsed)) ++accepted;
  }
  // Any bit flip in (entry, sq, blob) breaks the signature; flips inside
  // the signature bytes break verification; flips in owner_sig_key change
  // the claimed identity and the signature fails against it.
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, HybridDecryptionSurvivesGarbage) {
  util::Rng rng(5);
  const auto pair = crypto::rsa_generate(rng, 96);
  for (int trial = 0; trial < 300; ++trial) {
    const auto junk = random_bytes(rng, rng.below(150));
    EXPECT_NO_THROW({
      const auto out = crypto::rsa_decrypt_bytes(pair.priv, junk);
      (void)out;
    });
  }
}

TEST(Fuzz, PeelSurvivesGarbage) {
  util::Rng rng(6);
  const auto identity = crypto::Identity::generate(rng, 96);
  for (int trial = 0; trial < 300; ++trial) {
    const auto junk = random_bytes(rng, rng.below(150));
    EXPECT_NO_THROW({
      const auto out = onion::peel(junk, identity.anonymity_private());
      EXPECT_FALSE(out.has_value());
    });
  }
}

}  // namespace
}  // namespace hirep
