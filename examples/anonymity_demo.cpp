// Anonymity walkthrough — the §3.3 machinery step by step, with real
// crypto: the Figure-3 anonymity-key handshake, onion construction,
// layer-by-layer peeling, routing, and the sequence-number guard.
//
//   ./build/examples/anonymity_demo [relays=4] [seed=7]
#include <iostream>

#include "net/topology.hpp"
#include "net/transport.hpp"
#include "onion/router.hpp"
#include "util/bytes.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace hirep;
  const auto cfg = util::Config::from_args(argc, argv);
  const auto relay_count = static_cast<std::size_t>(cfg.get_int("relays", 4));
  util::Rng rng(static_cast<std::uint64_t>(cfg.get_int("seed", 7)));

  std::cout << "== hiREP onion anonymity walkthrough ==\n\n";

  // A small overlay whose nodes all own identities, and the transport that
  // carries every message across it.
  const std::size_t nodes = relay_count + 4;
  net::Overlay overlay(net::ring_lattice(nodes, 1), net::LatencyParams{}, 1);
  net::Transport transport(&overlay, net::DeliveryConfig{}, 1);
  std::vector<crypto::Identity> identities;
  std::cout << "Generating " << nodes << " identities (two RSA-128 key pairs "
            << "each; nodeId = SHA-1(SP))...\n";
  for (std::size_t v = 0; v < nodes; ++v) {
    identities.push_back(crypto::Identity::generate(rng, 128));
    std::cout << "  node " << v << "  nodeId "
              << identities.back().node_id().short_hex(16) << '\n';
  }

  // Peer P (node 0) verifies anonymity keys of its chosen relays via the
  // Figure-3 four-message handshake.
  const net::NodeIndex owner_ip = 0;
  const auto& owner = identities[owner_ip];
  std::cout << "\nFigure-3 handshakes (request, AP_p(AP_k,IP_k,nonce), "
            << "verification, confirmation):\n";
  std::vector<onion::RelayInfo> relays;
  for (std::size_t i = 0; i < relay_count; ++i) {
    const auto relay_ip = static_cast<net::NodeIndex>(i + 1);
    onion::HonestRelay endpoint(relay_ip, &identities[relay_ip]);
    const auto info =
        onion::fetch_anonymity_key(transport, rng, owner, owner_ip, endpoint);
    std::cout << "  relay " << relay_ip << " key "
              << (info ? "VERIFIED" : "REJECTED") << '\n';
    if (info) relays.push_back(*info);
  }

  // Build the onion: ((((fake)AP_p)IP_p)AP_1)IP_1 ... AP_k)IP_k, sq)SR_p.
  const auto onion = onion::build_onion(rng, owner, owner_ip, relays, /*sq=*/1);
  std::cout << "\nOnion built by node 0: entry=node " << onion.entry
            << ", layers=" << onion.relay_count << "+terminal, sq=" << onion.sq
            << ", blob=" << onion.blob.size() << " bytes, signature "
            << (onion::verify_onion(onion) ? "valid" : "INVALID") << '\n';

  // Peel layer by layer, showing that every relay learns only the next hop.
  std::cout << "\nPeeling (each relay sees an identical format and only the "
               "next hop):\n";
  util::Bytes blob = onion.blob;
  net::NodeIndex at = onion.entry;
  while (true) {
    const auto peeled = onion::peel(blob, identities[at].anonymity_private());
    if (!peeled) {
      std::cout << "  node " << at << ": cannot decrypt (not addressed here)\n";
      break;
    }
    if (peeled->terminal) {
      std::cout << "  node " << at << ": TERMINAL layer — this node is the "
                << "owner; fake-onion padding " << peeled->inner.size()
                << " bytes\n";
      break;
    }
    std::cout << "  node " << at << ": next hop -> node " << peeled->next
              << " (inner blob " << peeled->inner.size() << " bytes)\n";
    blob = peeled->inner;
    at = peeled->next;
  }

  // Route a payload through the onion: the Router peels the hop path
  // (signature and sq guard first), the transport carries the payload
  // along it.  Then demonstrate the anti-replay sequence guard.
  onion::Router router(&identities);
  const util::Bytes payload = {'h', 'i', 'r', 'e', 'p'};
  const auto sender = static_cast<net::NodeIndex>(nodes - 1);
  const auto route = [&](const onion::Onion& o) {
    const auto path = router.peel_path(o);
    if (!path) return net::DeliveryReceipt{};
    return transport.send(net::EnvelopeType::kProbe, sender, *path, payload);
  };
  const auto routed = route(onion);
  std::cout << "\nRouting a payload from node " << sender << ": "
            << (routed.delivered ? "delivered" : "LOST") << " to node "
            << routed.destination << " in " << routed.hops << " hops\n";

  // The owner performs its periodic onion refresh (§3.3: sq indicates the
  // age of the onion): it issues sq=2 and revokes everything older.  A
  // captured sq=1 onion becomes unroutable network-wide.
  const auto fresher = onion::build_onion(rng, owner, owner_ip, relays, 2);
  router.sequence_guard().revoke_before(owner.node_id(), fresher.sq);
  route(fresher);
  const auto replay = route(onion);
  std::cout << "Replaying the sq=1 onion after the owner revoked it: "
            << (replay.delivered ? "DELIVERED (bad!)" : "rejected (stale sq)")
            << '\n';

  std::cout << "\nTraffic: " << transport.envelopes().summary() << '\n';
  return routed.delivered && !replay.delivered ? 0 : 1;
}
