// HirepSystem — the public API facade wiring every substrate together:
// power-law overlay, per-node identities, onion routing, the reputation
// agent community, and the per-transaction hiREP protocol.
//
// Typical use (see examples/quickstart.cpp):
//
//   hirep::core::HirepOptions opts;
//   opts.nodes = 1000;
//   hirep::core::HirepSystem system(opts);
//   auto record = system.run_transaction();
//   // record.estimate vs record.truth_value, record.trust_messages, ...
//
// Crypto modes: each protocol step (relay handshake, onion issue, trust
// request and response, report and key-rotation fan-out) is written once
// and hands its cipher work to a CipherSuite (protocol.hpp), which the
// constructor picks from options.crypto.  kFull runs every onion layer,
// signature and encryption for real; kFast runs the same steps with the
// null suite, which sends the same envelopes along the same paths but
// carries no bytes and draws nothing (large parameter sweeps).
//
// Scale engine: run_transactions() executes a pre-drawn batch of
// requestor/provider pairs in conflict-free waves on a thread pool.  Every
// transaction owns a deterministic RNG stream derived from (seed, index),
// so serial and parallel execution produce byte-identical records; see
// DESIGN.md §9 for the batching rule and the determinism argument.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hirep/agent.hpp"
#include "hirep/discovery.hpp"
#include "hirep/execution.hpp"
#include "hirep/peer.hpp"
#include "hirep/protocol.hpp"
#include "net/reliable.hpp"
#include "onion/router.hpp"
#include "trust/world.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace hirep::core {

enum class CryptoMode {
  kFull,  ///< real RSA/onion work end to end (real_cipher_suite)
  kFast   ///< same protocol and messages, ciphers skipped (null_cipher_suite)
};

struct HirepOptions : trust::WorldOptions {
  unsigned rsa_bits = 128;         ///< RSA modulus size (scale up at will)
  std::size_t trusted_agents = 10; ///< c — trusted agents per peer (Table 1)
  std::size_t onion_relays = 5;    ///< o — relays per onion (Table 1)
  std::uint32_t discovery_tokens = 10;  ///< token number (Table 1)
  std::uint32_t discovery_ttl = 7;      ///< agent-list request TTL (§3.4.1)
  double expertise_alpha = 0.3;    ///< EWMA alpha for agent expertise
  double eviction_threshold = 0.4; ///< hirep-4/6/8 = 0.4/0.6/0.8 (Figure 6)
  double refill_fraction = 0.5;    ///< refill when list < fraction*capacity
  std::size_t backup_capacity = 20;
  std::string agent_model = "ewma";     ///< agent-side computation model
  CryptoMode crypto = CryptoMode::kFull;
  /// Retry discipline for request/response traffic (trust requests,
  /// responses, reports, §3.4.3 probes).  The zero-retry default is
  /// call-for-call identical to bare transport sends, so it cannot perturb
  /// a single golden bit.
  net::ReliablePolicy reliable;
  /// §3.4.3 hardening: when the community gives up on an unresponsive
  /// agent, and when a query degrades to first-hand trust.
  struct RecoveryOptions {
    /// Consecutive failed exchanges (any requestor) before an agent is
    /// quarantined; re-entry then requires a fresh successful probe.
    std::uint32_t suspicion_threshold = 3;
    /// Degrade a query to local first-hand trust when fewer live agent
    /// ratings than this arrive; 0 disables degradation.
    std::size_t min_quorum = 0;
  };
  RecoveryOptions recovery;
};

class HirepSystem : public trust::World {
 public:
  explicit HirepSystem(HirepOptions options);

  const HirepOptions& options() const noexcept { return options_; }
  onion::Router& router() noexcept { return router_; }

  std::size_t node_count() const noexcept { return peers_.size(); }
  Peer& peer(net::NodeIndex v) { return peers_.at(v); }
  const Peer& peer(net::NodeIndex v) const { return peers_.at(v); }
  /// nullptr when node v is not a reputation agent.
  ReputationAgent* agent_at(net::NodeIndex v);
  std::size_t agent_count() const noexcept { return agent_count_; }
  /// A deque so references stay stable while peers join a running system.
  const std::deque<crypto::Identity>& identities() const noexcept {
    return identities_;
  }
  /// Reverse lookup nodeId -> overlay index (simulation-side only).
  std::optional<net::NodeIndex> ip_of(const crypto::NodeId& id) const;

  // -- agent community ------------------------------------------------------

  /// True when the node is a live reputation agent.
  bool agent_online(net::NodeIndex v) const;
  /// Takes an agent down / brings it back (churn & DoS experiments).
  void set_agent_online(net::NodeIndex v, bool online);

  /// True when the community currently quarantines agent v (too many
  /// consecutive failed exchanges; lifted only by a successful probe).
  bool agent_quarantined(net::NodeIndex v) const;
  /// Test/chaos hook: places agent v straight into quarantine.
  void quarantine_agent(net::NodeIndex v);

  /// The retry channel request/response traffic travels through.
  net::ReliableChannel& reliable() noexcept { return reliable_; }
  const net::ReliableChannel& reliable() const noexcept { return reliable_; }

  /// Failover bookkeeping, mirrored into the obs registry under
  /// hirep.recovery.* at count time.
  struct RecoveryCounters {
    std::uint64_t suspicions = 0;         ///< failed exchanges observed
    std::uint64_t quarantines = 0;        ///< agents placed in quarantine
    std::uint64_t probations_cleared = 0; ///< quarantines lifted by a probe
    std::uint64_t backup_promotions = 0;  ///< backup entries probed back in
    std::uint64_t rediscoveries = 0;      ///< refills that fell through to discovery
    std::uint64_t degraded_queries = 0;   ///< queries under the quorum floor
  };
  RecoveryCounters recovery_counters() const;

  /// The trusted-agent list a node shares with discovery requests; an agent
  /// with no list of its own answers with its self-entry (§3.4.1).
  std::vector<AgentEntry> shareable_list(net::NodeIndex v);

  /// Runs the token+TTL discovery walk for `peer_ip` and installs up to
  /// (capacity - current) newly selected agents.  Returns agents added.
  std::size_t discover_agents(net::NodeIndex peer_ip);

  /// §3.4.3 maintenance: probe the backup cache first, then re-discover.
  void refill(net::NodeIndex peer_ip);

  /// Open membership: a brand-new peer joins the RUNNING system — fresh
  /// identity (two key pairs), preferential-attachment links into the
  /// overlay, verified onion relays, agent-capability roll, and the
  /// §3.4.1 trusted-agent discovery.  Returns the new node's index.
  net::NodeIndex join_peer();

  /// §3.5 key rotation: peer v generates a fresh signature key pair and
  /// sends the old-key-signed announcement to every agent that knows it
  /// (via the freshest onions, as the paper prescribes).  Agents verify
  /// the announcement and migrate the public-key-list entry, so the peer
  /// keeps its standing under the new nodeId.  Returns the new nodeId.
  crypto::NodeId rotate_peer_key(net::NodeIndex v);

  // -- protocol -------------------------------------------------------------

  struct AgentRating {
    crypto::NodeId agent;
    double value = 0.0;
    double weight = 0.0;
  };
  struct QueryResult {
    double estimate = 0.5;
    std::vector<AgentRating> ratings;
    std::size_t contacted = 0;  ///< online agents queried
    /// Fewer live ratings than options.recovery.min_quorum arrived and the
    /// estimate fell back to (or blended with) local first-hand trust.
    bool degraded = false;
  };
  /// Full trust-value query: request -> every trusted agent -> responses,
  /// expertise-weighted aggregation.  Offline agents fall to backup.
  QueryResult query_trust(net::NodeIndex requestor_ip,
                          net::NodeIndex subject_ip);

  struct TransactionRecord {
    net::NodeIndex requestor = net::kInvalidNode;
    net::NodeIndex provider = net::kInvalidNode;
    double estimate = 0.5;     ///< aggregated pre-transaction trust estimate
    double truth_value = 0.0;  ///< the provider's true trust (0/1)
    double outcome = 0.0;      ///< observed transaction result
    std::size_t responses = 0; ///< agent ratings received
    std::uint64_t trust_messages = 0;  ///< messages this transaction spent
  };
  /// One full transaction between random_pair() peers (paper §3.6):
  /// query, download, expertise update, signed reports, maintenance.
  TransactionRecord run_transaction();
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// Scale engine: executes a pre-drawn batch of requestor/provider pairs
  /// with the same per-transaction semantics as run_transaction(r, p).
  ///
  /// Each transaction draws from its own RNG stream derived from
  /// (options.seed, lifetime transaction index), never from rng(), so the
  /// result is a pure function of the transaction sequence: serial and
  /// parallel execution return byte-identical records, and splitting a
  /// sequence into consecutive batches (checkpointed experiments) yields
  /// the same records as one big batch.  Execution proceeds in
  /// conflict-free prefix waves — transactions run concurrently while
  /// their requestor/provider nodes are all distinct, capped at
  /// exec.wave_window per wave — and §3.4.3 refills are deferred to each
  /// wave's barrier, serial in transaction order.
  ///
  /// Throws std::invalid_argument on an out-of-range or requestor==provider
  /// pair, and when exec is concurrent while the delivery policy is not
  /// instant (lossy/delayed transports are inherently order-dependent).
  std::vector<TransactionRecord> run_transactions(
      std::span<const std::pair<net::NodeIndex, net::NodeIndex>> pairs,
      const Executor& exec = {});

  /// Second half of a transaction when the trust query already happened
  /// (e.g. the requestor compared several QueryHit candidates): download,
  /// expertise update, signed reports, maintenance.  `query` must be the
  /// result of query_trust(requestor, provider).  trust_messages covers
  /// only this call's traffic (the caller already paid for the query).
  TransactionRecord complete_transaction(net::NodeIndex requestor,
                                         net::NodeIndex provider,
                                         const QueryResult& query);

  /// Trust-related message count so far: hop messages of the trust
  /// request, trust response and report envelopes.  Exact between
  /// run_transactions() calls (engine lanes fold in at wave barriers).
  std::uint64_t trust_message_total() const;

 private:
  /// Community-side failure bookkeeping for one agent.  Atomics (not the
  /// agent mutex): engine lanes note failures for shared agents
  /// concurrently, and increments/threshold-crossings commute, so the
  /// post-wave state is scheduling-independent.  Heap-allocated to keep
  /// AgentRuntime movable.
  struct AgentRecovery {
    std::atomic<std::uint32_t> suspicion{0};  ///< consecutive failures
    std::atomic<bool> quarantined{false};
  };

  struct AgentRuntime {
    std::unique_ptr<ReputationAgent> agent;  ///< null: node is not an agent
    /// Serializes agent-side mutation when engine waves share the agent
    /// (requestors/providers are exclusive per wave; agents are not).
    /// Allocated only for actual agents; unique_ptr keeps Runtime movable.
    std::unique_ptr<util::Mutex> mu;
    std::unique_ptr<AgentRecovery> recovery;  ///< allocated for agents only
  };

  /// A resolved agent: the runtime record plus its overlay index, from one
  /// nodeId binary search (the old runtime_of + ip_of pair cost two).
  struct AgentRef {
    AgentRuntime* rt = nullptr;  ///< null: unknown id or not an agent
    net::NodeIndex ip = net::kInvalidNode;  ///< set for any known id
    explicit operator bool() const noexcept { return rt != nullptr; }
  };
  AgentRef resolve_agent(const crypto::NodeId& id);
  /// resolve_agent, but empty unless an exchange would contact the agent:
  /// online and not quarantined.  Sq reservation at wave formation and
  /// exchange_with_agent share this test, so every reserved sq is consumed
  /// by the agent it was drawn for.
  AgentRef contactable_agent(const crypto::NodeId& id);
  AgentRuntime* runtime_of(const crypto::NodeId& id) {
    return resolve_agent(id).rt;
  }
  /// Installs agent state for node v (its onions use its peer's relays).
  void make_agent(net::NodeIndex v, const crypto::Identity* identity);

  /// Everything one in-flight transaction threads through the protocol
  /// stack: its RNG stream, the transport lane it sends on, pre-reserved
  /// onion sequence numbers, and its own message/maintenance accounting.
  struct TxnCtx {
    util::Rng* rng = nullptr;
    net::Transport* transport = nullptr;
    /// Retry channel over `transport`; carries trust requests/responses,
    /// reports, key-rotation announcements and §3.4.3 probes (discovery
    /// walks and key handshakes stay on the bare transport).
    net::ReliableChannel* channel = nullptr;
    /// Onion sequence numbers reserved serially at wave formation (instant
    /// delivery only); consumed in issue order by issue_agent_onion.
    const std::vector<std::uint64_t>* reserved_sqs = nullptr;
    std::size_t reserved_cursor = 0;
    /// Transmissions of kTrustRequest/kTrustResponse/kReport envelopes —
    /// the same types trust_message_total() sums globally.
    std::uint64_t trust_messages = 0;
    /// Engine mode: record that a refill is due instead of running it
    /// inside the wave (it mutates shared discovery state).
    bool defer_refill = false;
    bool wants_refill = false;
  };
  TxnCtx legacy_ctx() noexcept { return TxnCtx{&rng_, &transport_, &reliable_}; }
  /// The (seed, index)-derived RNG stream for lifetime transaction `index`.
  util::Rng txn_stream(std::uint64_t index) const;

  /// Sends one onion-routed request: the suite resolves the path of
  /// `onion` (built over `relay_path`) and the reliable channel carries
  /// `wire` along it; the messages count toward ctx.trust_messages.  An
  /// onion that does not verify sends nothing.
  net::RequestOutcome send_over(TxnCtx& ctx, net::EnvelopeType type,
                                net::NodeIndex sender,
                                const onion::Onion& onion,
                                const std::vector<net::NodeIndex>& relay_path,
                                util::Bytes wire);

  /// Sends `seal()` to each of `sender`'s online trusted agents over its
  /// held onion, all in one ReliableChannel::request_batch, and calls
  /// `deliver(agent runtime, bytes)` for every copy the channel applied.
  /// Shared by the §3.6 report and §3.5 key-rotation fan-outs.
  template <class Seal, class Deliver>
  void fan_out(TxnCtx& ctx, net::EnvelopeType type, Peer& sender, Seal seal,
               Deliver deliver);

  onion::Onion issue_agent_onion(TxnCtx& ctx, net::NodeIndex agent_ip);
  AgentEntry self_entry(TxnCtx& ctx, net::NodeIndex agent_ip);
  std::size_t discover_agents(TxnCtx& ctx, net::NodeIndex peer_ip);
  void refill(TxnCtx& ctx, net::NodeIndex peer_ip);
  std::vector<onion::RelayInfo> pick_and_verify_relays(net::NodeIndex owner);

  /// Runs one request/response round with a single agent entry; returns the
  /// rating, or nullopt when the agent is offline/unreachable (the entry is
  /// then handled per §3.4.3).  Updates entry.onion to the fresh Onion_e.
  std::optional<double> exchange_with_agent(TxnCtx& ctx, Peer& requestor,
                                            AgentEntry& entry,
                                            net::NodeIndex subject_ip,
                                            const crypto::NodeId& subject_id);

  /// Suspicion ladder: a failed exchange bumps the agent's counter and
  /// quarantines it at the threshold; a success resets the counter.
  void note_exchange_failure(AgentRuntime& rt);
  void note_exchange_success(AgentRuntime& rt);
  /// Single admission point for trusted-list entries; runs the
  /// hirep.quarantine.fresh_probe gate (a quarantined agent may only enter
  /// via a fresh successful probe).
  bool admit_entry(Peer& p, AgentEntry entry, bool fresh_probe);

  QueryResult query_trust(TxnCtx& ctx, net::NodeIndex requestor_ip,
                          net::NodeIndex subject_ip);
  TransactionRecord complete_transaction(TxnCtx& ctx, net::NodeIndex requestor,
                                         net::NodeIndex provider,
                                         const QueryResult& query);

  HirepOptions options_;
  const CipherSuite* suite_;       ///< picked from options_.crypto
  net::ReliableChannel reliable_;  ///< retry channel over transport_
  std::deque<crypto::Identity> identities_;  // reference-stable on growth
  onion::Router router_;
  std::vector<Peer> peers_;
  /// Flat agent storage, one slot per node (agent == nullptr for non-agent
  /// nodes): index-based hot-path lookups instead of map pointer chasing.
  std::vector<AgentRuntime> agent_runtimes_;
  /// SoA per-node engine state, split out of AgentRuntime so the scale
  /// engine's hottest scans (liveness checks, sq reservation) touch two
  /// dense arrays instead of striding 100+-byte runtime records.
  std::vector<std::uint64_t> agent_sq_;    ///< next onion sequence number
  std::vector<std::uint8_t> agent_online_; ///< 1 = live agent (0 otherwise)
  std::size_t agent_count_ = 0;
  /// Reverse nodeId -> index mapping as a sorted flat vector (binary
  /// search); rebuilt incrementally on join/rotation.
  std::vector<std::pair<crypto::NodeId, net::NodeIndex>> id_to_ip_;

  // -- scale-engine state ---------------------------------------------------
  std::uint64_t txn_counter_ = 0;  ///< lifetime transactions batched so far
  /// Stream for deferred §3.4.3 maintenance (separate salt, so refills do
  /// not perturb any transaction's stream); created on first batch.
  std::optional<util::Rng> maintenance_rng_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created, persistent
  /// One transport lane per worker, all over the shared overlay; envelope
  /// counters fold back into transport_ at each wave barrier.
  std::vector<std::unique_ptr<net::Transport>> lanes_;
  /// One retry channel per lane (jitter streams stay per-lane).
  std::vector<std::unique_ptr<net::ReliableChannel>> lane_channels_;

  /// Failover tallies; atomics because lanes note failures concurrently.
  struct RecoveryTallies {
    std::atomic<std::uint64_t> suspicions{0};
    std::atomic<std::uint64_t> quarantines{0};
    std::atomic<std::uint64_t> probations_cleared{0};
    std::atomic<std::uint64_t> backup_promotions{0};
    std::atomic<std::uint64_t> rediscoveries{0};
    std::atomic<std::uint64_t> degraded_queries{0};
  };
  RecoveryTallies recovery_tallies_;
};

}  // namespace hirep::core
