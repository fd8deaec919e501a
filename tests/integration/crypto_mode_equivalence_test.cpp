// kFast must be a faithful accounting model of kFull: identical message
// structure per protocol action (the random streams differ, so exact
// transcripts cannot be compared — the invariants are structural).  Both
// modes run one protocol behind the cipher seam, so they also react to
// lossy, slow and retried delivery in the same way.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "hirep/system.hpp"

namespace hirep::core {
namespace {

HirepOptions options(CryptoMode mode, std::uint64_t seed = 31) {
  HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 4;
  o.onion_relays = 3;
  o.crypto = mode;
  o.seed = seed;
  o.world.malicious_ratio = 0.0;
  return o;
}

class ModeSweep : public ::testing::TestWithParam<CryptoMode> {};

TEST_P(ModeSweep, KeyExchangeBootstrapCostIsNodesTimesRelaysTimesFour) {
  const auto o = options(GetParam());
  HirepSystem sys(o);
  // Every handshake message is a one-hop envelope in the transport's ledger.
  const auto& handshakes =
      sys.transport().envelopes().of(net::EnvelopeType::kKeyExchange);
  EXPECT_EQ(handshakes.sent, o.nodes * o.onion_relays * 4);
  EXPECT_EQ(handshakes.hop_messages, o.nodes * o.onion_relays * 4);
}

TEST_P(ModeSweep, LateReportsStillReachEveryAgent) {
  // A report needs no answer, so a copy that lands after the reporter's
  // deadline still counts at its agent.  The query runs under instant
  // delivery; the reports then travel with link latency, far past 0.5 ms.
  auto o = options(GetParam());
  o.reliable.timeout_ms = 0.5;
  HirepSystem sys(o);
  const net::NodeIndex requestor = 0;
  const net::NodeIndex provider = 10;
  const auto query = sys.query_trust(requestor, provider);
  const crypto::NodeId subject = sys.identities()[provider].node_id();
  std::vector<std::pair<const ReputationAgent*, std::size_t>> before;
  for (const auto& entry : sys.peer(requestor).agents().entries()) {
    const ReputationAgent* agent = sys.agent_at(*sys.ip_of(entry.agent_id));
    before.emplace_back(agent, agent->report_count(subject));
  }
  ASSERT_FALSE(before.empty());
  sys.transport().set_policy(
      std::make_unique<net::LatencyDelivery>(&sys.overlay().latency()));
  sys.complete_transaction(requestor, provider, query);
  for (const auto& [agent, count] : before) {
    EXPECT_GT(agent->report_count(subject), count);
  }
}

TEST_P(ModeSweep, LateKeyRotationStillMigratesEveryAgent) {
  // Likewise a key-rotation announcement that lands after the deadline
  // still moves the peer's entry to its new nodeId at every agent.
  auto o = options(GetParam());
  o.reliable.timeout_ms = 0.5;
  HirepSystem sys(o);
  const net::NodeIndex peer = 0;
  sys.query_trust(peer, 10);  // registers the peer's key at its agents
  std::vector<const ReputationAgent*> agents;
  for (const auto& entry : sys.peer(peer).agents().entries()) {
    agents.push_back(sys.agent_at(*sys.ip_of(entry.agent_id)));
  }
  ASSERT_FALSE(agents.empty());
  sys.transport().set_policy(
      std::make_unique<net::LatencyDelivery>(&sys.overlay().latency()));
  const crypto::NodeId new_id = sys.rotate_peer_key(peer);
  for (const ReputationAgent* agent : agents) {
    EXPECT_TRUE(agent->lookup_key(new_id).has_value());
  }
}

TEST_P(ModeSweep, FanOutRetriesBackOffOncePerWave) {
  // Reports and announcements retry as one batch: when every copy is lost,
  // the clock moves by one backoff per attempt wave (2 ms, then 4 ms),
  // however many agents the fan-out addresses.
  auto o = options(GetParam());
  o.reliable.max_attempts = 3;
  o.reliable.backoff_ms = 2.0;
  HirepSystem sys(o);
  const auto query = sys.query_trust(0, 10);
  ASSERT_GE(sys.peer(0).agents().size(), 2u);
  net::FaultParams all_lost;
  all_lost.drop_rate = 1.0;
  sys.transport().set_policy(
      std::make_unique<net::FaultyDelivery>(all_lost, 1));
  const auto& reports = sys.transport().envelopes().of(net::EnvelopeType::kReport);
  const auto& rotations =
      sys.transport().envelopes().of(net::EnvelopeType::kKeyRotation);

  double start = sys.transport().sim().now();
  sys.complete_transaction(0, 10, query);
  EXPECT_DOUBLE_EQ(sys.transport().sim().now() - start, 6.0);
  EXPECT_EQ(reports.sent, 3 * sys.peer(0).agents().size());

  start = sys.transport().sim().now();
  sys.rotate_peer_key(0);
  EXPECT_DOUBLE_EQ(sys.transport().sim().now() - start, 6.0);
  EXPECT_EQ(rotations.sent, 3 * sys.peer(0).agents().size());
}

TEST_P(ModeSweep, PerTransactionCostIsThreeLegsPerResponder) {
  const auto o = options(GetParam());
  HirepSystem sys(o);
  for (int i = 0; i < 10; ++i) {
    const auto rec = sys.run_transaction();
    EXPECT_EQ(rec.trust_messages, 3 * (o.onion_relays + 1) * rec.responses);
  }
}

TEST_P(ModeSweep, HonestWorldEstimatesOnCorrectSide) {
  HirepSystem sys(options(GetParam()));
  for (net::NodeIndex p = 1; p < 15; ++p) {
    const auto q = sys.query_trust(0, p);
    if (q.ratings.empty()) continue;
    EXPECT_EQ(q.estimate > 0.5, sys.truth().trustable(p));
  }
}

TEST_P(ModeSweep, EntriesCarrySimulationRelayPaths) {
  const auto o = options(GetParam());
  HirepSystem sys(o);
  sys.run_transaction(0, 10);
  for (const auto& entry : sys.peer(0).agents().entries()) {
    EXPECT_EQ(entry.relay_path.size(), o.onion_relays + 1);
    EXPECT_EQ(entry.relay_path.back(), *sys.ip_of(entry.agent_id));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(CryptoMode::kFull, CryptoMode::kFast),
                         [](const auto& info) {
                           return info.param == CryptoMode::kFull ? "Full"
                                                                  : "Fast";
                         });

TEST(CryptoModeEquivalence, SameWorldSameTopologyAcrossModes) {
  // World generation consumes the rng identically in both modes (crypto
  // randomness comes later), so ground truth and topology must agree.
  HirepSystem fast(options(CryptoMode::kFast, 77));
  HirepSystem full(options(CryptoMode::kFull, 77));
  for (net::NodeIndex v = 0; v < 64; ++v) {
    EXPECT_EQ(fast.truth().trustable(v), full.truth().trustable(v));
    EXPECT_EQ(fast.truth().agent_capable(v), full.truth().agent_capable(v));
    EXPECT_EQ(fast.overlay().graph().degree(v), full.overlay().graph().degree(v));
  }
  EXPECT_EQ(fast.agent_count(), full.agent_count());
}

TEST(CryptoModeEquivalence, LossyHandshakesMatchAcrossModes) {
  // Handshakes ride the transport in both modes, so a faulty link loses
  // the same handshake messages whether or not they carry real bytes.
  const auto lossy = [](CryptoMode mode) {
    auto o = options(mode, 31);
    o.delivery.policy = net::DeliveryPolicyKind::kFaulty;
    o.delivery.faults.drop_rate = 0.2;
    return o;
  };
  HirepSystem fast(lossy(CryptoMode::kFast));
  HirepSystem full(lossy(CryptoMode::kFull));
  std::size_t verified = 0;
  for (net::NodeIndex v = 0; v < 64; ++v) {
    EXPECT_EQ(fast.peer(v).relays().size(), full.peer(v).relays().size())
        << "peer " << v;
    verified += full.peer(v).relays().size();
  }
  EXPECT_LT(verified, 64u * 3u);  // the faults did cost relays
  const auto& f = fast.transport().envelopes().of(net::EnvelopeType::kKeyExchange);
  const auto& g = full.transport().envelopes().of(net::EnvelopeType::kKeyExchange);
  EXPECT_EQ(f.sent, g.sent);
  EXPECT_EQ(f.dropped, g.dropped);
  EXPECT_GT(g.dropped, 0u);
}

}  // namespace
}  // namespace hirep::core
