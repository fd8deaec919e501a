#include "onion/relay.hpp"

#include "util/bytes.hpp"

namespace hirep::onion {

namespace {

// Wire tags keep the four handshake payload types unambiguous.
constexpr std::uint8_t kTagRelayRequest = 0x00;
constexpr std::uint8_t kTagKeyResponse = 0x01;
constexpr std::uint8_t kTagVerification = 0x02;
constexpr std::uint8_t kTagConfirmation = 0x03;

/// One handshake message over the single overlay edge `from` -> `to`: the
/// bytes that arrived, or nullopt when the transport lost them.
std::optional<util::Bytes> handshake_leg(net::Transport& transport,
                                         net::NodeIndex from, net::NodeIndex to,
                                         util::Bytes bytes) {
  auto receipt = transport.send(net::EnvelopeType::kKeyExchange, from, {to},
                                std::move(bytes));
  if (!receipt.delivered) return std::nullopt;
  return std::move(receipt.payload);
}

}  // namespace

util::Bytes HonestRelay::key_response(util::Rng& rng,
                                      const crypto::RsaPublicKey& requestor_ap,
                                      net::NodeIndex requestor_ip) {
  (void)requestor_ip;  // an honest relay replies to whoever asked
  pending_nonce_ = rng();
  have_pending_ = true;
  util::ByteWriter w;
  w.u8(kTagKeyResponse);
  w.blob(identity_->anonymity_public().serialize());
  w.u32(ip_);
  w.u64(pending_nonce_);
  return crypto::rsa_encrypt_bytes(rng, requestor_ap, w.bytes());
}

std::optional<util::Bytes> HonestRelay::key_confirm(
    util::Rng& rng, const util::Bytes& verification) {
  const auto plain =
      crypto::rsa_decrypt_bytes(identity_->anonymity_private(), verification);
  if (!plain || !have_pending_) return std::nullopt;
  try {
    util::ByteReader r(*plain);
    if (r.u8() != kTagVerification) return std::nullopt;
    const util::Bytes requestor_key = r.blob();
    const net::NodeIndex requestor_ip = r.u32();
    const std::uint64_t nonce = r.u64();
    if (!r.done() || nonce != pending_nonce_) return std::nullopt;
    have_pending_ = false;

    const auto requestor_ap = crypto::RsaPublicKey::deserialize(requestor_key);
    util::ByteWriter w;
    w.u8(kTagConfirmation);
    w.u32(ip_);
    w.u64(nonce);
    (void)requestor_ip;
    return crypto::rsa_encrypt_bytes(rng, requestor_ap, w.bytes());
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

std::optional<RelayInfo> fetch_anonymity_key(net::Transport& transport,
                                             util::Rng& rng,
                                             const crypto::Identity& requestor,
                                             net::NodeIndex requestor_ip,
                                             RelayEndpoint& relay) {
  const net::NodeIndex relay_ip = relay.ip();

  // Step 1: (R_o, AP_p, IP_p) — plaintext request.
  {
    util::ByteWriter w;
    w.u8(kTagRelayRequest);
    w.blob(requestor.anonymity_public().serialize());
    w.u32(requestor_ip);
    if (!handshake_leg(transport, requestor_ip, relay_ip, w.take())) {
      return std::nullopt;
    }
  }

  // Step 2: AP_p(AP_k, IP_k, nonce).
  const auto response = handshake_leg(
      transport, relay_ip, requestor_ip,
      relay.key_response(rng, requestor.anonymity_public(), requestor_ip));
  if (!response) return std::nullopt;

  crypto::RsaPublicKey claimed_key;
  net::NodeIndex claimed_ip = net::kInvalidNode;
  std::uint64_t nonce = 0;
  {
    const auto plain =
        crypto::rsa_decrypt_bytes(requestor.anonymity_private(), *response);
    if (!plain) return std::nullopt;
    try {
      util::ByteReader r(*plain);
      if (r.u8() != kTagKeyResponse) return std::nullopt;
      claimed_key = crypto::RsaPublicKey::deserialize(r.blob());
      claimed_ip = r.u32();
      nonce = r.u64();
      if (!r.done()) return std::nullopt;
    } catch (const util::TruncatedInput&) {
      return std::nullopt;
    }
  }
  // The claimed transport address must be the one we contacted: a relay
  // cannot redirect the circuit elsewhere.
  if (claimed_ip != relay_ip) return std::nullopt;

  // Step 3: AP_k(AP_p, IP_p, nonce) — provable only by the owner of AR_k.
  util::ByteWriter w;
  w.u8(kTagVerification);
  w.blob(requestor.anonymity_public().serialize());
  w.u32(requestor_ip);
  w.u64(nonce);
  const auto verification =
      handshake_leg(transport, requestor_ip, relay_ip,
                    crypto::rsa_encrypt_bytes(rng, claimed_key, w.bytes()));
  if (!verification) return std::nullopt;

  // Step 4: AP_p("confirmed", IP_k, nonce).
  auto confirmation = relay.key_confirm(rng, *verification);
  if (!confirmation) return std::nullopt;
  const auto confirmed = handshake_leg(transport, relay_ip, requestor_ip,
                                       std::move(*confirmation));
  if (!confirmed) return std::nullopt;
  const auto plain =
      crypto::rsa_decrypt_bytes(requestor.anonymity_private(), *confirmed);
  if (!plain) return std::nullopt;
  try {
    util::ByteReader r(*plain);
    if (r.u8() != kTagConfirmation) return std::nullopt;
    const net::NodeIndex confirmed_ip = r.u32();
    const std::uint64_t confirmed_nonce = r.u64();
    if (!r.done() || confirmed_ip != relay_ip || confirmed_nonce != nonce) {
      return std::nullopt;
    }
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
  return RelayInfo{relay_ip, claimed_key};
}

}  // namespace hirep::onion
