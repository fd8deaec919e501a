#include "hirep/protocol.hpp"

#include <algorithm>

#include "check/invariants.hpp"
#include "crypto/verify_cache.hpp"
#include "onion/relay.hpp"

namespace hirep::core {

namespace {

constexpr std::uint8_t kTagRequestBody = 0x21;
constexpr std::uint8_t kTagResponseBody = 0x22;
constexpr std::uint8_t kTagReportBody = 0x23;

void write_node_id(util::ByteWriter& w, const crypto::NodeId& id) {
  w.raw(id.bytes);
}

crypto::NodeId read_node_id(util::ByteReader& r) {
  const auto raw = r.raw(crypto::Sha1::kDigestSize);
  crypto::NodeId id;
  std::copy(raw.begin(), raw.end(), id.bytes.begin());
  return id;
}

}  // namespace

util::Bytes SealedMessage::serialize() const {
  util::ByteWriter w;
  w.blob(sealed);
  w.blob(sender_sp.serialize());
  w.blob(onion.serialize());
  return w.take();
}

std::optional<SealedMessage> SealedMessage::deserialize(
    std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    SealedMessage msg;
    msg.sealed = r.blob();
    msg.sender_sp = crypto::RsaPublicKey::deserialize(r.blob());
    auto onion = onion::Onion::deserialize(r.blob());
    if (!onion || !r.done()) return std::nullopt;
    msg.onion = std::move(*onion);
    return msg;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

util::Bytes TransactionReport::serialize() const {
  util::ByteWriter w;
  write_node_id(w, reporter);
  w.blob(body);
  w.blob(signature);
  return w.take();
}

std::optional<TransactionReport> TransactionReport::deserialize(
    std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    TransactionReport rep;
    rep.reporter = read_node_id(r);
    rep.body = r.blob();
    rep.signature = r.blob();
    if (!r.done()) return std::nullopt;
    return rep;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

TransactionReport build_report(const crypto::Identity& reporter,
                               const crypto::NodeId& subject, double outcome,
                               std::uint64_t nonce) {
  util::ByteWriter body;
  body.u8(kTagReportBody);
  write_node_id(body, subject);
  body.f64(outcome);
  body.u64(nonce);
  TransactionReport report;
  report.reporter = reporter.node_id();
  report.body = body.take();
  report.signature = reporter.sign(report.body);
  return report;
}

std::optional<OpenedReport> verify_report(const crypto::RsaPublicKey& reporter_sp,
                                          const TransactionReport& report) {
  if (!crypto::verify_cached(reporter_sp, report.body, report.signature)) {
    return std::nullopt;
  }
  if constexpr (check::kEnabled) {
    // The signature verified, so the message is about to be accepted; the
    // self-certifying invariant requires the key it verified under to hash
    // to the reporter id the message claims (§3.3).
    check::binding("protocol.report.binding",
                   crypto::node_id_of_cached(reporter_sp) == report.reporter,
                   crypto::NodeIdHash{}(report.reporter));
  }
  try {
    util::ByteReader r(report.body);
    if (r.u8() != kTagReportBody) return std::nullopt;
    OpenedReport opened;
    opened.subject = read_node_id(r);
    opened.outcome = r.f64();
    opened.nonce = r.u64();
    if (!r.done()) return std::nullopt;
    return opened;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

std::optional<onion::RelayInfo> CipherSuite::verify_relay(
    net::Transport& transport, util::Rng& /*rng*/,
    const crypto::Identity& /*owner*/, net::NodeIndex owner_ip,
    const crypto::Identity& relay, net::NodeIndex relay_ip) const {
  // The same four messages, empty; the key is taken on faith.
  for (int leg = 0; leg < 4; ++leg) {
    const bool outbound = leg % 2 == 0;
    if (!transport
             .send(net::EnvelopeType::kKeyExchange,
                   outbound ? owner_ip : relay_ip,
                   {outbound ? relay_ip : owner_ip})
             .delivered) {
      return std::nullopt;
    }
  }
  return onion::RelayInfo{relay_ip, relay.anonymity_public()};
}

onion::Onion CipherSuite::issue_onion(
    util::Rng& /*rng*/, const crypto::Identity& /*owner*/,
    net::NodeIndex owner_ip, const std::vector<onion::RelayInfo>& relays,
    std::uint64_t sq) const {
  onion::Onion onion;
  onion.entry = relays.empty() ? owner_ip : relays.back().ip;
  onion.sq = sq;
  onion.relay_count = static_cast<std::uint32_t>(relays.size());
  return onion;
}

namespace {

class RealCipherSuite final : public CipherSuite {
 public:
  std::optional<onion::RelayInfo> verify_relay(
      net::Transport& transport, util::Rng& rng,
      const crypto::Identity& owner, net::NodeIndex owner_ip,
      const crypto::Identity& relay,
      net::NodeIndex relay_ip) const override {
    onion::HonestRelay endpoint(relay_ip, &relay);
    return onion::fetch_anonymity_key(transport, rng, owner, owner_ip,
                                      endpoint);
  }

  onion::Onion issue_onion(util::Rng& rng, const crypto::Identity& owner,
                           net::NodeIndex owner_ip,
                           const std::vector<onion::RelayInfo>& relays,
                           std::uint64_t sq) const override {
    return onion::build_onion(rng, owner, owner_ip, relays, sq);
  }

  const std::vector<net::NodeIndex>* route(
      onion::Router& router, const onion::Onion& onion,
      const std::vector<net::NodeIndex>& /*relay_path*/,
      std::vector<net::NodeIndex>& peeled) const override {
    auto path = router.peel_path(onion);
    if (!path) return nullptr;
    peeled = std::move(*path);
    return &peeled;
  }

  util::Bytes seal_query(util::Rng& rng, const crypto::RsaPublicKey& agent_sp,
                         const TrustQuery& msg) const override {
    util::ByteWriter body;
    body.u8(kTagRequestBody);
    write_node_id(body, msg.subject);
    body.u64(msg.nonce);
    return SealedMessage{crypto::rsa_encrypt_bytes(rng, agent_sp, body.bytes()),
                         msg.sp_p, msg.reply_onion}
        .serialize();
  }

  bool open_query(const crypto::Identity& agent,
                  std::span<const std::uint8_t> wire,
                  TrustQuery& msg) const override {
    auto req = SealedMessage::deserialize(wire);
    if (!req) return false;
    const auto plain =
        crypto::rsa_decrypt_bytes(agent.signature_private(), req->sealed);
    if (!plain) return false;  // not addressed to this agent
    try {
      util::ByteReader r(*plain);
      if (r.u8() != kTagRequestBody) return false;
      msg.subject = read_node_id(r);
      msg.nonce = r.u64();
      if (!r.done()) return false;
    } catch (const util::TruncatedInput&) {
      return false;
    }
    msg.requestor = crypto::node_id_of_cached(req->sender_sp);
    msg.sp_p = std::move(req->sender_sp);
    msg.reply_onion = std::move(req->onion);
    return true;
  }

  util::Bytes seal_answer(util::Rng& rng,
                          const crypto::RsaPublicKey& requestor_sp,
                          const crypto::Identity& agent,
                          const TrustAnswer& msg) const override {
    util::ByteWriter body;
    body.u8(kTagResponseBody);
    body.f64(msg.value);
    body.u64(msg.nonce);
    return SealedMessage{
        crypto::rsa_encrypt_bytes(rng, requestor_sp, body.bytes()),
        agent.signature_public(), msg.report_onion}
        .serialize();
  }

  bool open_answer(const crypto::Identity& requestor,
                   std::span<const std::uint8_t> wire,
                   TrustAnswer& msg) const override {
    auto resp = SealedMessage::deserialize(wire);
    if (!resp) return false;
    const auto plain = crypto::rsa_decrypt_bytes(requestor.signature_private(),
                                                 resp->sealed);
    if (!plain) return false;
    try {
      util::ByteReader r(*plain);
      if (r.u8() != kTagResponseBody) return false;
      msg.value = r.f64();
      msg.nonce = r.u64();
      if (!r.done()) return false;
    } catch (const util::TruncatedInput&) {
      return false;
    }
    msg.report_onion = std::move(resp->onion);
    return true;
  }

  util::Bytes seal_report(util::Rng& rng, const crypto::Identity& reporter,
                          const OpenedReport& msg) const override {
    return build_report(reporter, msg.subject, msg.outcome, rng()).serialize();
  }

  bool open_report(std::span<const std::uint8_t> wire, const KeyLookup& key_of,
                   OpenedReport& msg) const override {
    const auto report = TransactionReport::deserialize(wire);
    if (!report) return false;
    const auto sp = key_of(report->reporter);
    if (!sp) return false;  // unknown reporter: §3.5.3 drop
    const auto opened = verify_report(*sp, *report);
    if (!opened) return false;  // bad signature: drop
    msg = *opened;
    return true;
  }

  util::Bytes seal_rotation(
      const crypto::Identity::RotationAnnouncement& msg) const override {
    return msg.serialize();
  }

  bool open_rotation(
      std::span<const std::uint8_t> wire,
      crypto::Identity::RotationAnnouncement& msg) const override {
    auto parsed = crypto::Identity::RotationAnnouncement::deserialize(wire);
    if (!parsed) return false;
    msg = std::move(*parsed);
    return true;
  }
};

}  // namespace

const CipherSuite& real_cipher_suite() {
  static const RealCipherSuite suite;
  return suite;
}

const CipherSuite& null_cipher_suite() {
  static const CipherSuite suite;
  return suite;
}

}  // namespace hirep::core
