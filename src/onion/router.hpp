// Onion path resolution over the simulated overlay: verifies an onion and
// peels it layer by layer into the node path a message sent over it
// travels.  The caller carries the message along that path through
// net::Transport, so every onion-routed send obeys the delivery policy and
// lands in the envelope ledger.  The router holds the registry of node
// identities — the simulator's stand-in for "each relay process owns its
// private key" — and the network-wide sq anti-replay guard.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "check/invariants.hpp"
#include "crypto/identity.hpp"
#include "onion/onion.hpp"

namespace hirep::onion {

class Router {
 public:
  /// Resolves an overlay index to the identity living at that node
  /// (nullptr = no such node).  A function, not a container pointer, so
  /// open-membership systems with growing identity stores work unchanged.
  using IdentityResolver =
      std::function<const crypto::Identity*(net::NodeIndex)>;

  explicit Router(IdentityResolver resolver);

  /// Convenience for the common fixed-population case.
  explicit Router(const std::vector<crypto::Identity>* identities);

  /// Enumerates the hop-by-hop node path of `onion` (entry relay first,
  /// destination last) by verifying the signature, enforcing the sq guard,
  /// and peeling every layer — without transmitting anything.  The
  /// transport then carries the payload along the returned path under its
  /// own delivery policy.  nullopt on bad signature, stale sq, or an
  /// undecryptable/over-deep layer structure.
  std::optional<std::vector<net::NodeIndex>> peel_path(const Onion& onion);

  /// The anti-replay state shared by all relays in this simulation.
  SequenceGuard& sequence_guard() noexcept { return guard_; }

  /// Issuer-side §3.3 invariant wiring: owners report each onion they issue
  /// through their system's router; `sq` must never decrease per owner.
  /// The tracker is per-router (= per-system) because independently seeded
  /// systems can hold colliding identities.
  void note_issued(const crypto::NodeId& owner, std::uint64_t sq);

 private:
  IdentityResolver resolver_;
  SequenceGuard guard_;
  check::MonotoneSequence issued_sq_{"onion.sq.issuer_monotone"};
};

/// Picks `count` distinct relay nodes uniformly from [0, n), excluding
/// `owner` (a peer does not relay through itself).
std::vector<net::NodeIndex> pick_relay_ips(util::Rng& rng, std::size_t n,
                                           std::size_t count,
                                           net::NodeIndex owner);

}  // namespace hirep::onion
