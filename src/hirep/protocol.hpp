// hiREP wire protocol (paper §3.5).
//
//   trust value request   { SP_e(R),  SP_p, Onion_p }   R = {subject, nonce}
//   trust value response  { SP_p(T),  SP_e, Onion_e }   T = {value, nonce}
//   transaction report    ( SR_p(result, nonce), nodeId_p )
//
// All three give voter anonymity (carried inside onions; identities hidden
// from relays and from each other's transport address) and authenticity
// (encryption to the recipient's public key; reports signed with the
// reporter's private key, verifiable against its nodeId-bound SP).
//
// CipherSuite (below) is the only place the two crypto modes differ:
// HirepSystem writes each protocol step once and asks its suite for the
// cipher work.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "crypto/identity.hpp"
#include "net/transport.hpp"
#include "onion/onion.hpp"
#include "onion/router.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::core {

/// The trust value request and response share one wire layout: a body
/// sealed to the receiver, the sender's SP, and an onion to the sender.
struct SealedMessage {
  util::Bytes sealed;              ///< SP_e(R) or SP_p(T)
  crypto::RsaPublicKey sender_sp;  ///< SP_p or SP_e
  onion::Onion onion;  ///< Onion_p (reply path) or fresh Onion_e (next report)

  util::Bytes serialize() const;
  static std::optional<SealedMessage> deserialize(
      std::span<const std::uint8_t> data);
};

struct TransactionReport {
  crypto::NodeId reporter;     ///< nodeId_p — lets the agent find SP_p
  util::Bytes body;            ///< (subject nodeId, outcome, nonce)
  util::Bytes signature;       ///< SR_p over body

  util::Bytes serialize() const;
  static std::optional<TransactionReport> deserialize(
      std::span<const std::uint8_t> data);
};

/// The plaintext of a trust value request as the agent reads it: R plus
/// the clear fields and the requestor's nodeId_p = SHA1(SP_p).
struct TrustQuery {
  crypto::NodeId subject;
  std::uint64_t nonce = 0;
  crypto::NodeId requestor;
  crypto::RsaPublicKey sp_p;
  onion::Onion reply_onion;
};

/// The plaintext of a trust value response as the requestor reads it: T
/// plus Onion_e.  The requestor must check the nonce against its own.
struct TrustAnswer {
  double value = 0.0;
  std::uint64_t nonce = 0;
  onion::Onion report_onion;   ///< fresh Onion_e for the next report
};

TransactionReport build_report(const crypto::Identity& reporter,
                               const crypto::NodeId& subject, double outcome,
                               std::uint64_t nonce);

struct OpenedReport {
  crypto::NodeId subject;
  double outcome = 0.0;
  std::uint64_t nonce = 0;
};
/// Verifies the reporter's signature against `reporter_sp` (which the agent
/// looked up by nodeId) and parses the body.  "If the result cannot be
/// decrypted, the message will be dropped" (§3.5.3) → nullopt.
std::optional<OpenedReport> verify_report(const crypto::RsaPublicKey& reporter_sp,
                                          const TransactionReport& report);

/// The cipher work of every hiREP step, behind one seam.  This base class
/// is the null suite (crypto=fast): it routes along the simulation-side
/// relay path, carries no bytes and draws nothing, so every receiver reads
/// the plaintext the sender wrote.  real_cipher_suite() (crypto=full)
/// overrides every step: it builds and peels onions, seals and opens the
/// request and response, signs and verifies reports and announcements,
/// and runs the Figure-3 handshake with the real bytes.  Both send the same
/// envelopes along the same node paths.
///
/// Each seal_* returns the bytes a message carries on the wire.  Each
/// open_* overwrites the message with what the receiver reads from the
/// delivered bytes, and returns false when the receiver must drop it
/// (undecryptable, malformed, unknown signer, bad signature).
class CipherSuite {
 public:
  virtual ~CipherSuite() = default;

  /// The Figure-3 handshake: the owner verifies the relay's anonymity key
  /// with four kKeyExchange envelopes over `transport`.  nullopt when a
  /// message is lost or the key does not verify.
  virtual std::optional<onion::RelayInfo> verify_relay(
      net::Transport& transport, util::Rng& rng,
      const crypto::Identity& owner, net::NodeIndex owner_ip,
      const crypto::Identity& relay, net::NodeIndex relay_ip) const;

  /// An onion owned by `owner` over `relays` (owner-adjacent first).
  virtual onion::Onion issue_onion(util::Rng& rng,
                                   const crypto::Identity& owner,
                                   net::NodeIndex owner_ip,
                                   const std::vector<onion::RelayInfo>& relays,
                                   std::uint64_t sq) const;

  /// The node path, entry relay first, of a message sent over an onion
  /// built over the simulation-side `relay_path`: that path itself, or the
  /// real suite's peel (signature, sq guard, every layer) stored in
  /// `peeled`.  nullptr when the onion does not verify.
  virtual const std::vector<net::NodeIndex>* route(
      onion::Router& /*router*/, const onion::Onion& /*onion*/,
      const std::vector<net::NodeIndex>& relay_path,
      std::vector<net::NodeIndex>& /*peeled*/) const {
    return &relay_path;
  }

  virtual util::Bytes seal_query(util::Rng& /*rng*/,
                                 const crypto::RsaPublicKey& /*agent_sp*/,
                                 const TrustQuery& /*msg*/) const {
    return {};
  }
  virtual bool open_query(const crypto::Identity& /*agent*/,
                          std::span<const std::uint8_t> /*wire*/,
                          TrustQuery& /*msg*/) const {
    return true;
  }

  virtual util::Bytes seal_answer(util::Rng& /*rng*/,
                                  const crypto::RsaPublicKey& /*requestor_sp*/,
                                  const crypto::Identity& /*agent*/,
                                  const TrustAnswer& /*msg*/) const {
    return {};
  }
  virtual bool open_answer(const crypto::Identity& /*requestor*/,
                           std::span<const std::uint8_t> /*wire*/,
                           TrustAnswer& /*msg*/) const {
    return true;
  }

  /// The real suite draws the report nonce here, then signs.
  virtual util::Bytes seal_report(util::Rng& /*rng*/,
                                  const crypto::Identity& /*reporter*/,
                                  const OpenedReport& /*msg*/) const {
    return {};
  }
  /// `key_of` is the agent's public-key list, asked for the reporter id on
  /// the wire.
  using KeyLookup = std::function<std::optional<crypto::RsaPublicKey>(
      const crypto::NodeId&)>;
  virtual bool open_report(std::span<const std::uint8_t> /*wire*/,
                           const KeyLookup& /*key_of*/,
                           OpenedReport& /*msg*/) const {
    return true;
  }

  virtual util::Bytes seal_rotation(
      const crypto::Identity::RotationAnnouncement& /*msg*/) const {
    return {};
  }
  virtual bool open_rotation(
      std::span<const std::uint8_t> /*wire*/,
      crypto::Identity::RotationAnnouncement& /*msg*/) const {
    return true;
  }
};

const CipherSuite& real_cipher_suite();
const CipherSuite& null_cipher_suite();

}  // namespace hirep::core
