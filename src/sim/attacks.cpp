#include "sim/attacks.hpp"

#include <algorithm>
#include <map>

#include "onion/relay.hpp"

namespace hirep::sim {

bool attempt_report_spoof(core::HirepSystem& system, net::NodeIndex attacker,
                          net::NodeIndex victim, net::NodeIndex agent_ip,
                          net::NodeIndex subject) {
  auto* agent = system.agent_at(agent_ip);
  if (agent == nullptr) return false;
  const auto& ids = system.identities();
  const crypto::Identity& victim_id = ids.at(victim);
  const crypto::Identity& attacker_id = ids.at(attacker);
  const crypto::NodeId subject_id = ids.at(subject).node_id();

  // The victim is known to the agent (its SP is on the public key list) —
  // the strongest position for the forger.
  agent->register_key(victim_id.node_id(), victim_id.signature_public());

  // Forge: body signed by the attacker, reporter field claims the victim.
  core::TransactionReport forged =
      core::build_report(attacker_id, subject_id, 1.0, system.rng()());
  forged.reporter = victim_id.node_id();

  const auto sp = agent->lookup_key(forged.reporter);
  if (!sp) return false;
  // The agent verifies the signature against the victim's SP; acceptance
  // would mean the spoof succeeded.
  return core::verify_report(*sp, forged).has_value();
}

namespace {

// A man in the middle that substitutes its own anonymity key in step 2 of
// the Figure-3 handshake.  Step 3 still travels to the honest relay's IP,
// so the confirmation must come from the honest relay — which cannot
// decrypt a verification encrypted to the attacker's key.
class MitmRelay final : public onion::RelayEndpoint {
 public:
  MitmRelay(net::NodeIndex honest_ip, const crypto::Identity* honest,
            const crypto::Identity* attacker)
      : honest_ip_(honest_ip), honest_(honest), attacker_(attacker) {}

  net::NodeIndex ip() const override { return honest_ip_; }

  util::Bytes key_response(util::Rng& rng,
                           const crypto::RsaPublicKey& requestor_ap,
                           net::NodeIndex requestor_ip) override {
    (void)requestor_ip;
    util::ByteWriter w;
    w.u8(0x01);  // kTagKeyResponse
    w.blob(attacker_->anonymity_public().serialize());  // substituted key
    w.u32(honest_ip_);  // still claims the honest relay's address
    w.u64(rng());
    return crypto::rsa_encrypt_bytes(rng, requestor_ap, w.bytes());
  }

  std::optional<util::Bytes> key_confirm(
      util::Rng& rng, const util::Bytes& verification) override {
    (void)rng;
    // The verification is addressed to IP_k, i.e. the honest relay, which
    // holds AR_k — not the attacker's AR.  Decryption fails, no
    // confirmation is produced.
    const auto plain =
        crypto::rsa_decrypt_bytes(honest_->anonymity_private(), verification);
    if (!plain) return std::nullopt;
    // (Unreachable for a substituted key; kept for completeness.)
    return std::nullopt;
  }

 private:
  net::NodeIndex honest_ip_;
  const crypto::Identity* honest_;
  const crypto::Identity* attacker_;
};

}  // namespace

bool attempt_mitm_key_substitution(core::HirepSystem& system,
                                   net::NodeIndex requestor,
                                   net::NodeIndex relay,
                                   net::NodeIndex attacker) {
  const auto& ids = system.identities();
  MitmRelay mitm(relay, &ids.at(relay), &ids.at(attacker));
  const auto info = onion::fetch_anonymity_key(
      system.transport(), system.rng(), ids.at(requestor), requestor, mitm);
  return info.has_value();  // acceptance == successful MITM
}

bool attempt_onion_replay(core::HirepSystem& system, net::NodeIndex owner) {
  auto& p = system.peer(owner);
  auto& rng = system.rng();
  const onion::Onion stale = p.issue_onion(rng, core::real_cipher_suite());
  const onion::Onion fresh = p.issue_onion(rng, core::real_cipher_suite());

  // A payload sent over an onion: the router peels the path (verifying the
  // signature and the sq guard), the transport carries it hop by hop.
  const auto routed = [&](const onion::Onion& onion) {
    const auto path = system.router().peel_path(onion);
    if (!path) return false;
    return system.transport()
        .send(net::EnvelopeType::kProbe, owner, *path, {0x42})
        .delivered;
  };
  // The owner performs its periodic onion refresh (§3.3: sq indicates the
  // age of the onion; holders keep only the freshest): everything older
  // than the current onion is revoked.
  system.router().sequence_guard().revoke_before(p.node_id(), fresh.sq);
  if (!routed(fresh)) return false;
  // The attacker replays a captured pre-refresh onion.
  return routed(stale);
}

std::vector<std::vector<core::AgentEntry>> hostile_recommendations(
    core::HirepSystem& system, const std::vector<net::NodeIndex>& good_agents,
    const std::vector<net::NodeIndex>& shill_agents, std::size_t list_count) {
  const auto& ids = system.identities();
  auto make_entry = [&](net::NodeIndex v, double weight) {
    core::AgentEntry e;
    e.agent_id = ids.at(v).node_id();
    e.agent_key = ids.at(v).signature_public();
    e.weight = weight;
    return e;
  };
  std::vector<std::vector<core::AgentEntry>> lists;
  lists.reserve(list_count);
  for (std::size_t i = 0; i < list_count; ++i) {
    std::vector<core::AgentEntry> list;
    for (net::NodeIndex v : shill_agents) list.push_back(make_entry(v, 1.0));
    for (net::NodeIndex v : good_agents) list.push_back(make_entry(v, 0.0));
    lists.push_back(std::move(list));
  }
  return lists;
}

std::vector<std::pair<net::NodeIndex, std::size_t>> agent_popularity(
    core::HirepSystem& system) {
  std::map<net::NodeIndex, std::size_t> counts;
  for (std::size_t v = 0; v < system.node_count(); ++v) {
    for (const auto& entry :
         system.peer(static_cast<net::NodeIndex>(v)).agents().entries()) {
      const auto ip = system.ip_of(entry.agent_id);
      if (ip) ++counts[*ip];
    }
  }
  std::vector<std::pair<net::NodeIndex, std::size_t>> out(counts.begin(),
                                                          counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

std::vector<net::NodeIndex> dos_top_agents(core::HirepSystem& system,
                                           std::size_t count) {
  std::vector<net::NodeIndex> victims;
  for (const auto& [ip, refs] : agent_popularity(system)) {
    if (victims.size() >= count) break;
    if (system.agent_online(ip)) {
      system.set_agent_online(ip, false);
      victims.push_back(ip);
    }
  }
  return victims;
}

std::vector<net::NodeIndex> sybil_corrupt_agents(core::HirepSystem& system,
                                                 std::size_t count) {
  auto popularity = agent_popularity(system);
  std::reverse(popularity.begin(), popularity.end());  // least referenced first
  std::vector<net::NodeIndex> converted;
  for (const auto& [ip, refs] : popularity) {
    if (converted.size() >= count) break;
    if (!system.truth().poor_evaluator(ip)) {
      system.truth().set_malicious(ip, true);
      converted.push_back(ip);
    }
  }
  return converted;
}

}  // namespace hirep::sim
