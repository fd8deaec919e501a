// Anonymity-key fetch handshake (paper §3.3, Figure 3).
//
// When peer P picks node K as an onion relay (P knows K's IP), the
// anonymity public key AP_k is fetched and *verified* with a four-message
// exchange:
//
//   1. P -> K : (R_o, AP_p, IP_p)                    routing-relay request
//   2. K -> P : AP_p( AP_k, IP_k, nonce )            key response
//   3. P -> K : AP_k( AP_p, IP_p, nonce )            key verification
//   4. K -> P : AP_p( "confirmed", IP_k, nonce )     confirmation
//
// If step 4 never verifies, AP_k is invalid (e.g. a man in the middle
// substituted its own key but cannot decrypt step 3 to learn the nonce).
// The nonce also blocks replays of old confirmations.
#pragma once

#include <optional>

#include "crypto/identity.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace hirep::onion {

/// A verified relay endpoint: transport address + anonymity public key.
struct RelayInfo {
  net::NodeIndex ip = net::kInvalidNode;
  crypto::RsaPublicKey anonymity_key;

  bool operator==(const RelayInfo&) const = default;
};

/// Interface the handshake uses to talk to the candidate relay.  In the
/// simulator the other side is an Identity held in the same process; the
/// indirection exists so tests can interpose an attacker.
class RelayEndpoint {
 public:
  virtual ~RelayEndpoint() = default;
  virtual net::NodeIndex ip() const = 0;
  /// Step 1 -> step 2: returns AP_p-encrypted (AP_k, IP_k, nonce).
  virtual util::Bytes key_response(util::Rng& rng,
                                   const crypto::RsaPublicKey& requestor_ap,
                                   net::NodeIndex requestor_ip) = 0;
  /// Step 3 -> step 4: returns AP_p-encrypted ("confirmed", IP_k, nonce),
  /// or nullopt when the verification message cannot be decrypted.
  virtual std::optional<util::Bytes> key_confirm(util::Rng& rng,
                                                 const util::Bytes& verification) = 0;
};

/// An honest relay endpoint wrapping a node's identity.
class HonestRelay final : public RelayEndpoint {
 public:
  HonestRelay(net::NodeIndex ip, const crypto::Identity* identity)
      : ip_(ip), identity_(identity) {}

  net::NodeIndex ip() const override { return ip_; }
  util::Bytes key_response(util::Rng& rng,
                           const crypto::RsaPublicKey& requestor_ap,
                           net::NodeIndex requestor_ip) override;
  std::optional<util::Bytes> key_confirm(util::Rng& rng,
                                         const util::Bytes& verification) override;

 private:
  net::NodeIndex ip_;
  const crypto::Identity* identity_;
  std::uint64_t pending_nonce_ = 0;
  bool have_pending_ = false;
};

/// Runs the full four-message handshake between `requestor` (at
/// requestor_ip) and `relay`: four kKeyExchange envelopes over the
/// transport, carrying the real bytes, each side acting on what arrived.
/// Returns the verified
/// RelayInfo, or nullopt when a message is lost or any step fails (wrong
/// nonce, undecryptable message, key mismatch); a failed step sends
/// nothing further.
std::optional<RelayInfo> fetch_anonymity_key(net::Transport& transport,
                                             util::Rng& rng,
                                             const crypto::Identity& requestor,
                                             net::NodeIndex requestor_ip,
                                             RelayEndpoint& relay);

}  // namespace hirep::onion
