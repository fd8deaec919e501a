// A general peer in the hiREP hierarchy: owns its cryptographic identity,
// its trusted-agent list + backup cache, its verified onion relays, and the
// aggregation / consistency logic used around a transaction.
//
// A peer never addresses an agent by transport address — only by nodeId +
// onion — which is the anonymity property the hierarchy preserves.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/invariants.hpp"
#include "crypto/identity.hpp"
#include "hirep/agent_list.hpp"
#include "onion/onion.hpp"
#include "onion/relay.hpp"

namespace hirep::core {

class CipherSuite;

class Peer {
 public:
  Peer(const crypto::Identity* identity, net::NodeIndex ip, ListParams params);

  const crypto::Identity& identity() const noexcept { return *identity_; }
  const crypto::NodeId& node_id() const noexcept { return identity_->node_id(); }
  net::NodeIndex ip() const noexcept { return ip_; }

  TrustedAgentList& agents() noexcept { return agents_; }
  const TrustedAgentList& agents() const noexcept { return agents_; }

  /// Onion relays this peer has verified (via the Figure-3 handshake).
  void set_relays(std::vector<onion::RelayInfo> relays);
  const std::vector<onion::RelayInfo>& relays() const noexcept { return relays_; }
  /// Simulation-side path of this peer's onions: entry relay first.
  std::vector<net::NodeIndex> relay_path() const;

  /// Issues a fresh reply onion with a non-decreasing sequence number,
  /// built by `suite`.
  onion::Onion issue_onion(util::Rng& rng, const CipherSuite& suite);
  std::uint64_t next_sq() noexcept { return sq_++; }

  /// Expertise-weighted aggregation of agent responses.  Empty input
  /// returns the neutral prior 0.5; zero total weight falls back to the
  /// unweighted mean.
  static double aggregate(const std::vector<std::pair<double, double>>&
                              value_weight_pairs);

  /// A rating is consistent with an outcome when both sit on the same side
  /// of 0.5 (the rating scopes are [0,0.4] / [0.6,1], outcomes are {0,1}).
  static bool consistent(double rating, double outcome) noexcept {
    return (rating > 0.5) == (outcome > 0.5);
  }

  std::uint64_t transactions() const noexcept { return transactions_; }
  void note_transaction() noexcept { ++transactions_; }

  /// First-hand trust: an EWMA (same alpha as the expertise update) over
  /// this peer's own transaction outcomes with a subject — the degradation
  /// fallback when the live trusted-agent quorum collapses.  nullopt until
  /// the peer has transacted with the subject at least once.
  std::optional<double> first_hand(const crypto::NodeId& subject) const;
  void note_outcome(const crypto::NodeId& subject, double outcome);

 private:
  const crypto::Identity* identity_;
  net::NodeIndex ip_;
  TrustedAgentList agents_;
  std::vector<onion::RelayInfo> relays_;
  std::uint64_t sq_ = 1;
  std::uint64_t transactions_ = 0;
  std::unordered_map<crypto::NodeId, double, crypto::NodeIdHash> first_hand_;
  check::MonotoneSequence issued_sq_{"onion.sq.issuer_monotone"};
};

}  // namespace hirep::core
