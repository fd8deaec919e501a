#include "hirep/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "check/invariants.hpp"
#include "crypto/verify_cache.hpp"
#include "net/flood.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace hirep::core {

namespace {

ListParams list_params_from(const HirepOptions& o) {
  ListParams lp;
  lp.alpha = o.expertise_alpha;
  lp.eviction_threshold = o.eviction_threshold;
  lp.capacity = o.trusted_agents;
  lp.backup_capacity = o.backup_capacity;
  lp.refill_fraction = o.refill_fraction;
  return lp;
}

// Stream salts for the scale engine: transaction streams and deferred
// maintenance draw from disjoint (seed, salt) families.
constexpr std::uint64_t kTxnStreamSalt = 0x5ca1ab1e0ddba11dULL;
constexpr std::uint64_t kMaintenanceSalt = 0xdecafbadf00dfeedULL;
constexpr std::uint64_t kLaneSeedSalt = 0x1a5e5eedULL;
constexpr std::uint64_t kChannelSeedSalt = 0xbadc0ffee0dba11ULL;

using IdMap = std::vector<std::pair<crypto::NodeId, net::NodeIndex>>;

IdMap::iterator id_lower_bound(IdMap& m, const crypto::NodeId& id) {
  return std::lower_bound(
      m.begin(), m.end(), id,
      [](const IdMap::value_type& e, const crypto::NodeId& k) {
        return e.first < k;
      });
}

IdMap::const_iterator id_lower_bound(const IdMap& m, const crypto::NodeId& id) {
  return std::lower_bound(
      m.begin(), m.end(), id,
      [](const IdMap::value_type& e, const crypto::NodeId& k) {
        return e.first < k;
      });
}

}  // namespace

HirepSystem::HirepSystem(HirepOptions options)
    : World(options, 0x1eafcafeULL, 0xfa017ca7ULL),
      options_(std::move(options)),
      // The one place the crypto mode is read: every protocol step below
      // runs the same code and leaves the cipher work to this suite.
      suite_(options_.crypto == CryptoMode::kFull ? &real_cipher_suite()
                                                  : &null_cipher_suite()),
      reliable_(&transport_, options_.reliable,
                options_.seed ^ kChannelSeedSalt),
      router_([this](net::NodeIndex v) -> const crypto::Identity* {
        return v < identities_.size() ? &identities_[v] : nullptr;
      }) {
  if (options_.nodes < 8) throw std::invalid_argument("need >= 8 nodes");

  // Bootstrap runs in three timed phases (DESIGN §16); none is timed per
  // key or per walk, which would cost a registry lock each.
  {
    // Identities: two RSA key pairs per node; nodeId = SHA1(SP).
    obs::ScopedTimer phase("bootstrap/identities");
    id_to_ip_.reserve(options_.nodes);
    for (std::size_t v = 0; v < options_.nodes; ++v) {
      identities_.push_back(
          crypto::Identity::generate(rng_, options_.rsa_bits));
      id_to_ip_.emplace_back(identities_.back().node_id(),
                             static_cast<net::NodeIndex>(v));
    }
    std::sort(id_to_ip_.begin(), id_to_ip_.end(),
              [](const IdMap::value_type& a, const IdMap::value_type& b) {
                return a.first < b.first;
              });
  }

  {
    // Peers, each with its verified onion relays.
    obs::ScopedTimer phase("bootstrap/relays");
    const ListParams lp = list_params_from(options_);
    peers_.reserve(options_.nodes);
    for (std::size_t v = 0; v < options_.nodes; ++v) {
      const auto ip = static_cast<net::NodeIndex>(v);
      peers_.emplace_back(&identities_[v], ip, lp);
      peers_.back().set_relays(pick_and_verify_relays(ip));
    }
  }

  obs::ScopedTimer phase("bootstrap/discovery");
  // Agent community: every bandwidth-qualified node claims agent-hood.
  agent_runtimes_.resize(options_.nodes);
  agent_sq_.assign(options_.nodes, 1);
  agent_online_.assign(options_.nodes, 0);
  for (net::NodeIndex v : truth_.agent_capable_nodes()) {
    make_agent(v, &identities_[v]);
  }

  // Community formation: each peer discovers its trusted agents.  Peers
  // run in random order; early responders only know agent self-entries,
  // later ones inherit curated lists — the emergent hierarchy of §3.4.
  std::vector<net::NodeIndex> order(options_.nodes);
  for (std::size_t v = 0; v < options_.nodes; ++v) {
    order[v] = static_cast<net::NodeIndex>(v);
  }
  rng_.shuffle(order);
  for (net::NodeIndex v : order) discover_agents(v);
}

void HirepSystem::make_agent(net::NodeIndex v,
                             const crypto::Identity* identity) {
  AgentRuntime& rt = agent_runtimes_[v];
  rt.agent = std::make_unique<ReputationAgent>(
      identity, v, &truth_, trust::model_factory_by_name(options_.agent_model));
  rt.mu = std::make_unique<util::Mutex>();
  rt.recovery = std::make_unique<AgentRecovery>();
  agent_online_[v] = 1;
  ++agent_count_;
}

ReputationAgent* HirepSystem::agent_at(net::NodeIndex v) {
  if (v >= agent_runtimes_.size()) return nullptr;
  return agent_runtimes_[v].agent.get();
}

std::optional<net::NodeIndex> HirepSystem::ip_of(const crypto::NodeId& id) const {
  const auto it = id_lower_bound(id_to_ip_, id);
  if (it == id_to_ip_.end() || !(it->first == id)) return std::nullopt;
  return it->second;
}

bool HirepSystem::agent_online(net::NodeIndex v) const {
  return v < agent_online_.size() && agent_online_[v] != 0;
}

void HirepSystem::set_agent_online(net::NodeIndex v, bool online) {
  if (v >= agent_runtimes_.size() || agent_runtimes_[v].agent == nullptr) {
    throw std::invalid_argument("node is not an agent");
  }
  agent_online_[v] = online ? 1 : 0;
}

bool HirepSystem::agent_quarantined(net::NodeIndex v) const {
  return v < agent_runtimes_.size() &&
         agent_runtimes_[v].recovery != nullptr &&
         agent_runtimes_[v].recovery->quarantined.load(
             std::memory_order_relaxed);
}

void HirepSystem::quarantine_agent(net::NodeIndex v) {
  if (v >= agent_runtimes_.size() || agent_runtimes_[v].agent == nullptr) {
    throw std::invalid_argument("node is not an agent");
  }
  if (!agent_runtimes_[v].recovery->quarantined.exchange(
          true, std::memory_order_relaxed)) {
    recovery_tallies_.quarantines.fetch_add(1, std::memory_order_relaxed);
  }
}

HirepSystem::RecoveryCounters HirepSystem::recovery_counters() const {
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  RecoveryCounters c;
  c.suspicions = get(recovery_tallies_.suspicions);
  c.quarantines = get(recovery_tallies_.quarantines);
  c.probations_cleared = get(recovery_tallies_.probations_cleared);
  c.backup_promotions = get(recovery_tallies_.backup_promotions);
  c.rediscoveries = get(recovery_tallies_.rediscoveries);
  c.degraded_queries = get(recovery_tallies_.degraded_queries);
  return c;
}

void HirepSystem::note_exchange_failure(AgentRuntime& rt) {
  recovery_tallies_.suspicions.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    static obs::Counter& suspicions =
        obs::Registry::global().counter("hirep.recovery.suspicions");
    suspicions.add();
  }
  const std::uint32_t after =
      rt.recovery->suspicion.fetch_add(1, std::memory_order_relaxed) + 1;
  // Exactly one incrementer observes the threshold crossing, so the
  // quarantine transition (and its tally) happens once no matter how many
  // lanes report failures concurrently.
  if (after == options_.recovery.suspicion_threshold &&
      !rt.recovery->quarantined.exchange(true, std::memory_order_relaxed)) {
    recovery_tallies_.quarantines.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& quarantines =
          obs::Registry::global().counter("hirep.recovery.quarantines");
      quarantines.add();
    }
  }
}

void HirepSystem::note_exchange_success(AgentRuntime& rt) {
  rt.recovery->suspicion.store(0, std::memory_order_relaxed);
}

bool HirepSystem::admit_entry(Peer& p, AgentEntry entry, bool fresh_probe) {
  if constexpr (check::kEnabled) {
    const auto* rt = runtime_of(entry.agent_id);
    const bool quarantined =
        rt != nullptr && rt->recovery->quarantined.load(
                             std::memory_order_relaxed);
    check::gate("hirep.quarantine.fresh_probe", fresh_probe || !quarantined,
                "trusted-list admission",
                crypto::NodeIdHash{}(entry.agent_id), p.ip());
  }
  return p.agents().add(std::move(entry));
}

HirepSystem::AgentRef HirepSystem::resolve_agent(const crypto::NodeId& id) {
  const auto it = id_lower_bound(id_to_ip_, id);
  if (it == id_to_ip_.end() || !(it->first == id)) return {};
  AgentRef ref;
  ref.ip = it->second;  // set for any known id, agent or not
  if (ref.ip < agent_runtimes_.size() &&
      agent_runtimes_[ref.ip].agent != nullptr) {
    ref.rt = &agent_runtimes_[ref.ip];
  }
  return ref;
}

HirepSystem::AgentRef HirepSystem::contactable_agent(const crypto::NodeId& id) {
  const AgentRef ref = resolve_agent(id);
  if (!ref || !agent_online_[ref.ip]) return {};
  // The community has given up on a quarantined agent: no request is even
  // sent until a fresh probe (refill) readmits it.
  if (ref.rt->recovery->quarantined.load(std::memory_order_relaxed)) return {};
  return ref;
}

std::vector<onion::RelayInfo> HirepSystem::pick_and_verify_relays(
    net::NodeIndex owner) {
  // Current overlay population (the graph is authoritative even during
  // bootstrap and after joins): joiners relay too.
  const auto ips = onion::pick_relay_ips(rng_, overlay_.node_count(),
                                         options_.onion_relays, owner);
  std::vector<onion::RelayInfo> relays;
  relays.reserve(ips.size());
  for (net::NodeIndex ip : ips) {
    // Figure-3 handshake over the transport; a relay whose handshake is
    // lost or fails verification is skipped.
    auto info = suite_->verify_relay(transport_, rng_, identities_[owner],
                                     owner, identities_[ip], ip);
    if (info) relays.push_back(std::move(*info));
  }
  return relays;
}

onion::Onion HirepSystem::issue_agent_onion(TxnCtx& ctx,
                                            net::NodeIndex agent_ip) {
  std::uint64_t sq;
  if (ctx.reserved_sqs != nullptr &&
      ctx.reserved_cursor < ctx.reserved_sqs->size()) {
    // Reserved serially at wave formation; note_issued already ran there.
    sq = (*ctx.reserved_sqs)[ctx.reserved_cursor++];
  } else {
    sq = agent_sq_[agent_ip]++;
    router_.note_issued(identities_[agent_ip].node_id(), sq);
  }
  // Agents issue onions over the relays their peer verified.
  return suite_->issue_onion(*ctx.rng, identities_[agent_ip], agent_ip,
                             peers_[agent_ip].relays(), sq);
}

AgentEntry HirepSystem::self_entry(TxnCtx& ctx, net::NodeIndex agent_ip) {
  AgentEntry entry;
  entry.weight = 1.0;
  entry.agent_id = identities_[agent_ip].node_id();
  entry.agent_key = identities_[agent_ip].signature_public();
  entry.onion = issue_agent_onion(ctx, agent_ip);
  entry.relay_path = peers_[agent_ip].relay_path();
  return entry;
}

std::vector<AgentEntry> HirepSystem::shareable_list(net::NodeIndex v) {
  const auto& list = peers_.at(v).agents();
  if (!list.empty()) return list.entries();
  if (agent_online(v)) {
    TxnCtx ctx = legacy_ctx();
    return {self_entry(ctx, v)};
  }
  return {};
}

std::size_t HirepSystem::discover_agents(TxnCtx& ctx, net::NodeIndex peer_ip) {
  Peer& p = peers_.at(peer_ip);
  if (p.agents().full()) return 0;
  if constexpr (obs::kEnabled) {
    static obs::Counter& walks =
        obs::Registry::global().counter("hirep.discovery.walks");
    walks.add();
  }

  // A visited node answers when it holds a trusted list or is an online
  // agent, which answers with its self-entry (§3.4.1).  The walk's test
  // issues that self-entry's onion and drops it: the sq bump (and, under
  // full crypto, the onion's draws) are part of the pinned streams.
  const auto visits = net::token_walk(
      *ctx.transport, *ctx.rng, peer_ip, options_.discovery_tokens,
      options_.discovery_ttl, [this, &ctx](net::NodeIndex v) {
        if (!peers_[v].agents().empty()) return true;
        if (!agent_online(v)) return false;
        (void)issue_agent_onion(ctx, v);
        return true;
      });

  // Rank views of the responders' own lists; a list-less agent's answer is
  // its self-entry, issued afresh in visit order.
  std::vector<AgentEntry> self_entries;
  self_entries.reserve(visits.size());  // no reallocation: spans point in
  std::vector<std::span<const AgentEntry>> lists;
  lists.reserve(visits.size());
  for (const auto& visit : visits) {
    const auto& list = peers_[visit.node].agents();
    if (!list.empty()) {
      lists.emplace_back(list.entries());
    } else {
      self_entries.push_back(self_entry(ctx, visit.node));
      lists.emplace_back(&self_entries.back(), 1);
    }
  }

  std::size_t added = 0;
  for (AgentEntry& e :
       rank_and_select(lists, p.agents().params().capacity, *ctx.rng)) {
    if (p.agents().full()) break;
    // A peer does not pick itself, and re-verification of the nodeId/key
    // binding rejects forged recommendations.
    if (e.agent_id == p.node_id()) continue;
    if (crypto::node_id_of_cached(e.agent_key) != e.agent_id) continue;
    // A quarantined agent cannot re-enter any trusted list from a
    // recommendation; only a fresh probe (refill) readmits it.
    {
      const auto* rt = runtime_of(e.agent_id);
      if (rt != nullptr && rt->recovery->quarantined.load(
                               std::memory_order_relaxed)) {
        continue;
      }
    }
    if (admit_entry(p, std::move(e), /*fresh_probe=*/false)) ++added;
  }
  if constexpr (obs::kEnabled) {
    static obs::Counter& agents_added =
        obs::Registry::global().counter("hirep.discovery.agents_added");
    agents_added.add(added);
  }
  return added;
}

std::size_t HirepSystem::discover_agents(net::NodeIndex peer_ip) {
  TxnCtx ctx = legacy_ctx();
  return discover_agents(ctx, peer_ip);
}

void HirepSystem::refill(TxnCtx& ctx, net::NodeIndex peer_ip) {
  Peer& p = peers_.at(peer_ip);
  // Probe the backup cache, most recent first (§3.4.3).
  while (!p.agents().full()) {
    auto backup = p.agents().pop_backup();
    if (!backup) break;
    const AgentRef ref = resolve_agent(backup->agent_id);
    if (ref.ip == net::kInvalidNode) continue;
    const auto probed =
        ctx.channel->request(net::EnvelopeType::kProbe, peer_ip, {ref.ip});
    if (!probed.ok) continue;  // probe lost: treated as offline
    AgentRuntime* rt = ref.rt;
    if (rt != nullptr && agent_online_[ref.ip]) {
      // A delivered probe to a live agent is exactly the fresh evidence
      // that lifts a standing quarantine (§3.4.3 re-entry rule).
      rt->recovery->suspicion.store(0, std::memory_order_relaxed);
      if (rt->recovery->quarantined.exchange(false,
                                             std::memory_order_relaxed)) {
        recovery_tallies_.probations_cleared.fetch_add(
            1, std::memory_order_relaxed);
        if constexpr (obs::kEnabled) {
          static obs::Counter& cleared = obs::Registry::global().counter(
              "hirep.recovery.probations_cleared");
          cleared.add();
        }
      }
      if (admit_entry(p, std::move(*backup), /*fresh_probe=*/true)) {
        recovery_tallies_.backup_promotions.fetch_add(
            1, std::memory_order_relaxed);
        if constexpr (obs::kEnabled) {
          static obs::Counter& promotions = obs::Registry::global().counter(
              "hirep.recovery.backup_promotions");
          promotions.add();
        }
      }
    }
  }
  if (p.agents().needs_refill()) {
    recovery_tallies_.rediscoveries.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& rediscoveries =
          obs::Registry::global().counter("hirep.recovery.rediscoveries");
      rediscoveries.add();
    }
    discover_agents(ctx, peer_ip);
  }
}

void HirepSystem::refill(net::NodeIndex peer_ip) {
  TxnCtx ctx = legacy_ctx();
  refill(ctx, peer_ip);
}

net::NodeIndex HirepSystem::join_peer() {
  // Transport level: preferential-attachment links, as a joining servent
  // bootstrapping off well-known high-degree hosts would get.
  const auto m = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.average_degree / 2.0));
  std::vector<net::NodeIndex> neighbors;
  while (neighbors.size() < m) {
    const auto candidate = overlay_.sample_by_degree(rng_);
    if (std::find(neighbors.begin(), neighbors.end(), candidate) ==
        neighbors.end()) {
      neighbors.push_back(candidate);
    }
  }
  const net::NodeIndex v = overlay_.add_node(neighbors);

  // World + identity level.
  const auto truth_index = truth_.add_node(rng_);
  (void)truth_index;  // same index by construction
  identities_.push_back(crypto::Identity::generate(rng_, options_.rsa_bits));
  id_to_ip_.insert(id_lower_bound(id_to_ip_, identities_.back().node_id()),
                   {identities_.back().node_id(), v});

  // Peer state: verified relays, then trusted-agent discovery (§3.4.1).
  peers_.emplace_back(&identities_.back(), v, list_params_from(options_));
  peers_.back().set_relays(pick_and_verify_relays(v));
  agent_runtimes_.resize(peers_.size());
  agent_sq_.resize(peers_.size(), 1);
  agent_online_.resize(peers_.size(), 0);
  if (truth_.agent_capable(v)) {
    make_agent(v, &identities_.back());
  }
  discover_agents(v);
  return v;
}

crypto::NodeId HirepSystem::rotate_peer_key(net::NodeIndex v) {
  crypto::Identity& identity = identities_.at(v);
  const crypto::NodeId old_id = identity.node_id();
  const auto announcement =
      identity.rotate_signature_key(rng_, options_.rsa_bits);

  // Simulation-side reverse mapping follows the identity.
  {
    const auto it = id_lower_bound(id_to_ip_, old_id);
    if (it != id_to_ip_.end() && it->first == old_id) id_to_ip_.erase(it);
  }
  id_to_ip_.insert(id_lower_bound(id_to_ip_, identity.node_id()),
                   {identity.node_id(), v});

  // "New public keys signed by current private key can be sent out using
  // the most recently received onions" (§3.5): the announcement travels to
  // every trusted agent over the freshest Onion_e the peer holds, and each
  // agent a copy reaches verifies it and migrates the peer's entry.  A
  // lost announcement leaves that agent on the old SP.
  TxnCtx ctx = legacy_ctx();
  fan_out(ctx, net::EnvelopeType::kKeyRotation, peers_.at(v),
          [&] { return suite_->seal_rotation(announcement); },
          [&](AgentRuntime& rt, std::span<const std::uint8_t> wire) {
            auto heard = announcement;
            if (suite_->open_rotation(wire, heard)) {
              rt.agent->migrate_key(old_id, heard);
            }
          });
  return identity.node_id();
}

net::RequestOutcome HirepSystem::send_over(
    TxnCtx& ctx, net::EnvelopeType type, net::NodeIndex sender,
    const onion::Onion& onion, const std::vector<net::NodeIndex>& relay_path,
    util::Bytes wire) {
  std::vector<net::NodeIndex> peeled;
  const auto* path = suite_->route(router_, onion, relay_path, peeled);
  if (path == nullptr) return {};  // bad signature / stale sq / corrupt layer
  auto outcome = ctx.channel->request(type, sender, *path, std::move(wire));
  ctx.trust_messages += outcome.messages;
  return outcome;
}

template <class Seal, class Deliver>
void HirepSystem::fan_out(TxnCtx& ctx, net::EnvelopeType type, Peer& sender,
                          Seal seal, Deliver deliver) {
  // One message per online trusted agent, all in one envelope batch
  // through the reliable channel.  None needs an acknowledgement: any copy
  // that reached its agent is applied (at most once), even one that landed
  // past the sender's deadline.  Application commutes across distinct
  // agents, so applying after the batch equals the per-entry sequential
  // form.
  struct Outgoing {
    AgentRuntime* rt;
    util::Bytes wire;
    std::vector<net::NodeIndex> peeled;
  };
  const auto& entries = sender.agents().entries();
  std::vector<Outgoing> outgoing;
  outgoing.reserve(entries.size());  // requests point into these elements
  std::vector<net::ReliableChannel::BatchRequest> requests;
  requests.reserve(entries.size());
  for (const auto& entry : entries) {
    const AgentRef ref = resolve_agent(entry.agent_id);
    if (!ref || !agent_online_[ref.ip]) continue;
    outgoing.push_back({ref.rt, seal(), {}});
    Outgoing& out = outgoing.back();
    const auto* path =
        suite_->route(router_, entry.onion, entry.relay_path, out.peeled);
    if (path == nullptr) {
      outgoing.pop_back();
      continue;
    }
    requests.push_back({sender.ip(), path, out.wire});
  }
  const auto routed = ctx.channel->request_batch(type, requests);
  for (std::size_t i = 0; i < routed.size(); ++i) {
    ctx.trust_messages += routed[i].messages;
    if (routed[i].applied) deliver(*outgoing[i].rt, routed[i].payload);
  }
}

std::optional<double> HirepSystem::exchange_with_agent(
    TxnCtx& ctx, Peer& requestor, AgentEntry& entry, net::NodeIndex subject_ip,
    const crypto::NodeId& subject_id) {
  const AgentRef ref = contactable_agent(entry.agent_id);
  if (!ref) return std::nullopt;
  AgentRuntime* rt = ref.rt;
  const auto agent_ip = ref.ip;

  // Requestor: R = {subject, nonce} sealed to the agent, with a fresh reply
  // onion, over the agent's onion.  A lost request means the agent never
  // hears the question.
  const std::uint64_t nonce = (*ctx.rng)();
  TrustQuery query;
  query.subject = subject_id;
  query.nonce = nonce;
  query.requestor = requestor.node_id();
  query.sp_p = requestor.identity().signature_public();
  query.reply_onion = requestor.issue_onion(*ctx.rng, *suite_);
  const auto to_agent = send_over(
      ctx, net::EnvelopeType::kTrustRequest, requestor.ip(), entry.onion,
      entry.relay_path,
      suite_->seal_query(*ctx.rng, entry.agent_key, query));
  if (!to_agent.ok || to_agent.destination != agent_ip) return std::nullopt;

  // Agent side.
  if (!suite_->open_query(rt->agent->identity(), to_agent.payload, query)) {
    return std::nullopt;
  }
  TrustAnswer answer;
  answer.nonce = query.nonce;
  {
    // Agents may be shared between transactions of one wave; requestors
    // are not.  All agent-side state transitions commute (see DESIGN §9).
    util::MutexLock lock(*rt->mu);
    rt->agent->register_key(query.requestor, query.sp_p);
    answer.value = rt->agent->trust_value(query.subject, subject_ip, *ctx.rng);
  }
  if constexpr (obs::kEnabled) {
    static obs::Counter& votes =
        obs::Registry::global().counter("hirep.trust.votes_sent");
    votes.add();  // the agent answered, even if the response is then lost
  }
  // The answer carries a fresh Onion_e over the requestor's onion.  A lost
  // response means the agent answered but the requestor treats it as
  // unreachable (§3.4.3).
  answer.report_onion = issue_agent_onion(ctx, agent_ip);
  const auto to_peer = send_over(
      ctx, net::EnvelopeType::kTrustResponse, agent_ip, query.reply_onion,
      requestor.relay_path(),
      suite_->seal_answer(*ctx.rng, query.sp_p, rt->agent->identity(),
                          answer));
  if (!to_peer.ok || to_peer.destination != requestor.ip()) {
    return std::nullopt;
  }

  // Back at the requestor.
  if (!suite_->open_answer(requestor.identity(), to_peer.payload, answer) ||
      answer.nonce != nonce) {
    return std::nullopt;
  }
  if constexpr (check::kEnabled) {
    // Holder-side §3.3 invariant: within an entry's lifetime, the onion a
    // holder keeps for an issuer is only ever replaced by a fresher one.
    if (answer.report_onion.sq < entry.onion.sq) {
      check::report({"onion.sq.holder_monotone",
                     "refreshed onion sq " +
                         std::to_string(answer.report_onion.sq) +
                         " < held sq " + std::to_string(entry.onion.sq),
                     -1.0, crypto::NodeIdHash{}(entry.agent_id),
                     requestor.ip()});
    }
  }
  // Refresh the reply path with the agent's newest onion.  Copied, not
  // moved: the entry keeps its own buffers, while a moved-in onion would
  // leave these long-lived bytes in whichever lane's heap parsed them
  // (+1.3 MB peak RSS on a 2k-node full-crypto run).
  entry.onion = answer.report_onion;
  entry.relay_path = peers_[agent_ip].relay_path();
  return answer.value;
}

HirepSystem::QueryResult HirepSystem::query_trust(TxnCtx& ctx,
                                                  net::NodeIndex requestor_ip,
                                                  net::NodeIndex subject_ip) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& queries =
        obs::Registry::global().counter("hirep.trust.queries");
    queries.add();
  }
  Peer& p = peers_.at(requestor_ip);
  const crypto::NodeId subject_id = identities_.at(subject_ip).node_id();

  QueryResult result;
  std::vector<crypto::NodeId> offline;
  for (auto& entry : p.agents().entries()) {
    ++result.contacted;
    const auto value =
        exchange_with_agent(ctx, p, entry, subject_ip, subject_id);
    AgentRuntime* rt = runtime_of(entry.agent_id);
    if (!value) {
      if (rt != nullptr) note_exchange_failure(*rt);
      offline.push_back(entry.agent_id);
      continue;
    }
    if (rt != nullptr) note_exchange_success(*rt);
    result.ratings.push_back({entry.agent_id, *value, entry.weight});
  }
  for (const auto& id : offline) p.agents().handle_offline(id);

  std::vector<std::pair<double, double>> vw;
  vw.reserve(result.ratings.size());
  for (const auto& r : result.ratings) vw.emplace_back(r.value, r.weight);
  result.estimate = Peer::aggregate(vw);

  // Graceful degradation: below the live-rating quorum the requestor stops
  // trusting the thinned community outright and falls back to (or blends
  // in) its own first-hand experience with the subject.
  if (options_.recovery.min_quorum > 0 &&
      result.ratings.size() < options_.recovery.min_quorum) {
    result.degraded = true;
    const auto local = p.first_hand(subject_id);
    if (local) {
      result.estimate = result.ratings.empty()
                            ? *local
                            : 0.5 * (result.estimate + *local);
    }
    recovery_tallies_.degraded_queries.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      static obs::Counter& degraded =
          obs::Registry::global().counter("hirep.recovery.degraded_queries");
      degraded.add();
    }
  }
  return result;
}

HirepSystem::QueryResult HirepSystem::query_trust(net::NodeIndex requestor_ip,
                                                  net::NodeIndex subject_ip) {
  TxnCtx ctx = legacy_ctx();
  return query_trust(ctx, requestor_ip, subject_ip);
}

HirepSystem::TransactionRecord HirepSystem::run_transaction() {
  const auto [requestor, provider] = random_pair();
  return run_transaction(requestor, provider);
}

HirepSystem::TransactionRecord HirepSystem::run_transaction(
    net::NodeIndex requestor, net::NodeIndex provider) {
  TxnCtx ctx = legacy_ctx();
  const QueryResult query = query_trust(ctx, requestor, provider);
  TransactionRecord record = complete_transaction(ctx, requestor, provider,
                                                  query);
  record.trust_messages = ctx.trust_messages;
  return record;
}

HirepSystem::TransactionRecord HirepSystem::complete_transaction(
    TxnCtx& ctx, net::NodeIndex requestor, net::NodeIndex provider,
    const QueryResult& query) {
  const std::uint64_t before = ctx.trust_messages;
  Peer& p = peers_.at(requestor);
  const crypto::NodeId subject_id = identities_.at(provider).node_id();

  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.estimate = query.estimate;
  record.truth_value = truth_.true_trust(provider);
  record.responses = query.ratings.size();
  record.outcome = truth_.transaction_outcome(provider);
  p.note_transaction();
  p.note_outcome(subject_id, record.outcome);

  // Expertise update: A_c = 1 iff the agent's evaluation matched the result.
  for (const auto& rating : query.ratings) {
    p.agents().update_expertise(rating.agent,
                                Peer::consistent(rating.value, record.outcome));
  }

  // Signed transaction reports to all remaining trusted agents (§3.6).
  // Reports carry the reporter's *claimed* outcome: honest peers forward
  // the observation verbatim (bit-identical to the pre-hook path), while
  // adversary-recruited reporters — front peers, bad-mouthing rings — may
  // falsify it.  The peer's own first-hand memory and expertise updates
  // above keep the true observation: liars know the truth, they just
  // don't report it.
  const double reported =
      truth_.reported_outcome(requestor, provider, record.outcome);
  fan_out(ctx, net::EnvelopeType::kReport, p,
          [&] {
            return suite_->seal_report(*ctx.rng, p.identity(),
                                       {subject_id, reported});
          },
          [&](AgentRuntime& rt, std::span<const std::uint8_t> wire) {
            OpenedReport report{subject_id, reported};
            // lookup_key returns the key by value, so the signature check
            // (the expensive part) runs outside the agent lock.
            const auto key_of = [&rt](const crypto::NodeId& id) {
              util::MutexLock lock(*rt.mu);
              return rt.agent->lookup_key(id);
            };
            if (!suite_->open_report(wire, key_of, report)) return;
            util::MutexLock lock(*rt.mu);
            rt.agent->accept_report(report.subject, report.outcome);
          });

  // Maintenance (§3.4.3).  Batched execution defers it to the wave barrier:
  // discovery touches peers outside this transaction's conflict set.  A
  // degraded query is itself a re-discovery trigger: the live community
  // has thinned below what the peer can work with.
  if (p.agents().needs_refill() || query.degraded) {
    if (ctx.defer_refill) {
      ctx.wants_refill = true;
    } else {
      refill(ctx, requestor);
    }
  }

  record.trust_messages = ctx.trust_messages - before;
  return record;
}

HirepSystem::TransactionRecord HirepSystem::complete_transaction(
    net::NodeIndex requestor, net::NodeIndex provider,
    const QueryResult& query) {
  TxnCtx ctx = legacy_ctx();
  return complete_transaction(ctx, requestor, provider, query);
}

util::Rng HirepSystem::txn_stream(std::uint64_t index) const {
  // Distinct, decorrelated stream per transaction — the determinism
  // backbone of the scale engine: a transaction's draws depend only on
  // (options.seed, lifetime index), never on scheduling.
  std::uint64_t s = options_.seed ^ kTxnStreamSalt;
  s += (index + 1) * 0x9e3779b97f4a7c15ULL;
  return util::Rng(util::splitmix64(s));
}

std::vector<HirepSystem::TransactionRecord> HirepSystem::run_transactions(
    std::span<const std::pair<net::NodeIndex, net::NodeIndex>> pairs,
    const Executor& exec) {
  // Judge the policy actually installed, not just the configured kind: a
  // chaos wrapper (sim::ChaosDelivery) swapped in over an instant config
  // still drops and delays, so it forfeits both concurrent execution and
  // the up-front sq reservation below.
  const bool instant =
      options_.delivery.policy == net::DeliveryPolicyKind::kInstant &&
      std::string_view(transport_.policy().name()) == "instant";
  if (exec.concurrent() && !instant) {
    throw std::invalid_argument(
        "run_transactions: parallel execution requires instant delivery "
        "(lossy/delayed/chaotic transports are order-dependent)");
  }
  for (const auto& [r, p] : pairs) {
    if (r >= peers_.size() || p >= peers_.size() || r == p) {
      throw std::invalid_argument(
          "run_transactions: invalid requestor/provider pair");
    }
  }
  if (!maintenance_rng_) {
    std::uint64_t s = options_.seed ^ kMaintenanceSalt;
    maintenance_rng_.emplace(util::splitmix64(s));
  }

  std::size_t lane_count = 1;
  if (exec.concurrent()) {
    if (!pool_ || (exec.threads != 0 && pool_->size() != exec.threads)) {
      pool_ = std::make_unique<util::ThreadPool>(exec.threads);
    }
    // One lane per worker, keyed by chunk index.  Lane transports draw
    // nothing under instant delivery, so lane count/assignment cannot
    // perturb a single byte.
    lane_count = pool_->size();
    while (lanes_.size() < lane_count) {
      lanes_.push_back(std::make_unique<net::Transport>(
          &overlay_, options_.delivery,
          options_.seed ^ (kLaneSeedSalt + lanes_.size())));
      lane_channels_.push_back(std::make_unique<net::ReliableChannel>(
          lanes_.back().get(), options_.reliable,
          options_.seed ^ (kChannelSeedSalt + lanes_.size())));
    }
  }

  std::vector<TransactionRecord> records(pairs.size());
  std::vector<std::uint8_t> wants_refill(pairs.size(), 0);
  std::vector<std::uint8_t> busy(peers_.size(), 0);
  std::vector<std::size_t> wave;
  std::vector<std::vector<std::uint64_t>> reserved;
  std::size_t next = 0;

  while (next < pairs.size()) {
    // Wave formation: the maximal conflict-free PREFIX of the remaining
    // transactions, capped at exec.wave_window members.  A transaction
    // joins until one shows up whose requestor or provider node is already
    // claimed — those are the only peers a transaction mutates, so wave
    // members touch disjoint peer state (agents are shared but internally
    // locked; their transitions commute per subject, DESIGN §9).  The
    // prefix rule — rather than skipping ahead past conflicts — keeps
    // execution equivalent to strict index-order serial execution, so
    // splitting a batch at any boundary yields byte-identical records
    // (checkpointed experiments compose).  NOTE: the window cap moves wave
    // BARRIERS (hence refill timing), so byte-identity across engines
    // holds for equal wave_window values.
    wave.clear();
    std::fill(busy.begin(), busy.end(), std::uint8_t{0});
    std::size_t stop = next;
    for (; stop < pairs.size(); ++stop) {
      if (exec.wave_window != 0 && wave.size() >= exec.wave_window) break;
      const auto [r, p] = pairs[stop];
      if (busy[r] || busy[p]) break;
      busy[r] = busy[p] = 1;
      wave.push_back(stop);
    }

    // Sequence reservation: under instant delivery every contactable
    // trusted agent of a requestor issues exactly one fresh onion per
    // exchange, so the sq draws are known up front.  Claiming them serially
    // here, in transaction order, keeps each agent's sq stream identical to
    // a serial run no matter how the wave is scheduled.
    reserved.assign(wave.size(), {});
    if (instant) {
      for (std::size_t j = 0; j < wave.size(); ++j) {
        Peer& rp = peers_[pairs[wave[j]].first];
        for (const AgentEntry& entry : rp.agents().entries()) {
          const AgentRef ref = contactable_agent(entry.agent_id);
          if (!ref) continue;
          const std::uint64_t sq = agent_sq_[ref.ip]++;
          router_.note_issued(entry.agent_id, sq);
          reserved[j].push_back(sq);
        }
      }
    }

    const auto run_one = [&](std::size_t j, net::Transport& lane,
                             net::ReliableChannel& channel) {
      const std::size_t i = wave[j];
      util::Rng rng = txn_stream(txn_counter_ + i);
      TxnCtx ctx;
      ctx.rng = &rng;
      ctx.transport = &lane;
      ctx.channel = &channel;
      if (instant) ctx.reserved_sqs = &reserved[j];
      ctx.defer_refill = true;
      const auto [r, p] = pairs[i];
      const QueryResult query = query_trust(ctx, r, p);
      records[i] = complete_transaction(ctx, r, p, query);
      records[i].trust_messages = ctx.trust_messages;
      wants_refill[i] = ctx.wants_refill ? 1 : 0;
    };

    if (lane_count > 1 && wave.size() > 1) {
      const std::size_t lanes_used = std::min(lane_count, wave.size());
      const std::size_t per = (wave.size() + lanes_used - 1) / lanes_used;
      pool_->parallel_for(lanes_used, [&](std::size_t lane) {
        const std::size_t begin = lane * per;
        const std::size_t end = std::min(wave.size(), begin + per);
        for (std::size_t j = begin; j < end; ++j) {
          run_one(j, *lanes_[lane], *lane_channels_[lane]);
        }
      });
      // Barrier: fold lane envelope counters back into the primary
      // transport so its totals match a serial run, and release each
      // lane's payload arena — batches never outlive a wave, so lane
      // memory stays flat across the run.
      for (std::size_t lane = 0; lane < lanes_used; ++lane) {
        transport_.absorb_envelopes(*lanes_[lane]);
        lanes_[lane]->arena().reset();
      }
    } else {
      // Serial reference (also a single-transaction wave under either
      // mode: one transaction has nothing to run concurrently with).
      for (std::size_t j = 0; j < wave.size(); ++j) {
        run_one(j, transport_, reliable_);
      }
    }

    // Deferred §3.4.3 maintenance: serial, in transaction order, on its
    // own stream — refills never perturb any transaction's draws.  Runs
    // after the whole wave, so under either engine every report of a wave
    // precedes every refill of that wave.
    for (std::size_t j = 0; j < wave.size(); ++j) {
      const std::size_t i = wave[j];
      if (!wants_refill[i]) continue;
      TxnCtx ctx;
      ctx.rng = &*maintenance_rng_;
      ctx.transport = &transport_;
      ctx.channel = &reliable_;
      refill(ctx, pairs[i].first);
    }
    next = stop;
  }
  txn_counter_ += pairs.size();
  return records;
}

std::uint64_t HirepSystem::trust_message_total() const {
  const auto& m = transport_.envelopes();
  return m.of(net::EnvelopeType::kTrustRequest).hop_messages +
         m.of(net::EnvelopeType::kTrustResponse).hop_messages +
         m.of(net::EnvelopeType::kReport).hop_messages;
}

}  // namespace hirep::core
