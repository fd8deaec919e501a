#include "hirep/system.hpp"

#include <gtest/gtest.h>

namespace hirep::core {
namespace {

HirepOptions small_options(CryptoMode mode = CryptoMode::kFull) {
  HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 5;
  o.onion_relays = 3;
  o.crypto = mode;
  o.seed = 11;
  o.world.malicious_ratio = 0.0;
  return o;
}

TEST(HirepSystem, BootstrapInvariants) {
  HirepSystem sys(small_options());
  EXPECT_EQ(sys.node_count(), 64u);
  EXPECT_GT(sys.agent_count(), 5u);
  EXPECT_TRUE(sys.overlay().graph().connected());
  // Every node has an identity with a consistent reverse mapping.
  for (net::NodeIndex v = 0; v < 64; ++v) {
    const auto ip = sys.ip_of(sys.identities()[v].node_id());
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(*ip, v);
  }
}

TEST(HirepSystem, PeersSelectedAgentsAreRealAgents) {
  HirepSystem sys(small_options());
  for (net::NodeIndex v = 0; v < 64; ++v) {
    for (const auto& entry : sys.peer(v).agents().entries()) {
      const auto ip = sys.ip_of(entry.agent_id);
      ASSERT_TRUE(ip.has_value());
      EXPECT_NE(sys.agent_at(*ip), nullptr)
          << "peer " << v << " trusts non-agent node " << *ip;
      // A peer never selects itself.
      EXPECT_NE(*ip, v);
      // The entry's key matches its id (self-certification).
      EXPECT_EQ(crypto::NodeId::of_key(entry.agent_key), entry.agent_id);
    }
  }
}

TEST(HirepSystem, MostPeersFindAgents) {
  HirepSystem sys(small_options());
  std::size_t with_agents = 0;
  for (net::NodeIndex v = 0; v < 64; ++v) {
    with_agents += sys.peer(v).agents().size() > 0;
  }
  EXPECT_GT(with_agents, 55u);
}

TEST(HirepSystem, QueryReturnsRatingsFromAgents) {
  HirepSystem sys(small_options());
  const auto q = sys.query_trust(0, 5);
  EXPECT_EQ(q.ratings.size(), sys.peer(0).agents().size());
  for (const auto& r : q.ratings) {
    EXPECT_GE(r.value, 0.0);
    EXPECT_LE(r.value, 1.0);
    EXPECT_GT(r.weight, 0.0);
  }
}

TEST(HirepSystem, QueryEstimateTracksTruthWithHonestAgents) {
  HirepSystem sys(small_options());
  // With zero malicious nodes every rating is on the correct side.
  for (net::NodeIndex subject = 1; subject < 20; ++subject) {
    const auto q = sys.query_trust(0, subject);
    if (q.ratings.empty()) continue;
    if (sys.truth().trustable(subject)) {
      EXPECT_GT(q.estimate, 0.5);
    } else {
      EXPECT_LT(q.estimate, 0.5);
    }
  }
}

TEST(HirepSystem, TransactionSpendsExactlyThreeLegsPerResponder) {
  auto opts = small_options();
  HirepSystem sys(opts);
  const auto rec = sys.run_transaction(3, 9);
  const auto per_leg = opts.onion_relays + 1;
  EXPECT_EQ(rec.trust_messages, 3 * per_leg * rec.responses);
}

TEST(HirepSystem, TransactionRecordsTruthfulOutcome) {
  HirepSystem sys(small_options());
  for (int i = 0; i < 10; ++i) {
    const auto rec = sys.run_transaction();
    EXPECT_EQ(rec.outcome, sys.truth().true_trust(rec.provider));
    EXPECT_EQ(rec.truth_value, sys.truth().true_trust(rec.provider));
    EXPECT_NE(rec.requestor, rec.provider);
  }
}

TEST(HirepSystem, MaliciousAgentsGetEvicted) {
  auto opts = small_options(CryptoMode::kFast);
  opts.nodes = 128;
  opts.world.malicious_ratio = 0.3;
  HirepSystem sys(opts);

  // Count malicious agents on peer 0's list before and after training.
  auto malicious_on_list = [&](net::NodeIndex peer) {
    std::size_t count = 0;
    for (const auto& e : sys.peer(peer).agents().entries()) {
      const auto ip = sys.ip_of(e.agent_id);
      if (ip && sys.truth().poor_evaluator(*ip)) ++count;
    }
    return count;
  };
  const auto before = malicious_on_list(0);
  for (int i = 0; i < 30; ++i) {
    sys.run_transaction(0, static_cast<net::NodeIndex>(1 + i % 100));
  }
  const auto after = malicious_on_list(0);
  EXPECT_LE(after, before);
  EXPECT_LE(after, 1u);  // wrong-on-every-transaction agents cannot survive
}

TEST(HirepSystem, OfflineAgentMovesToBackupOnQuery) {
  HirepSystem sys(small_options(CryptoMode::kFast));
  auto& list = sys.peer(0).agents();
  ASSERT_GT(list.size(), 0u);
  const auto victim = list.entries()[0].agent_id;
  const auto victim_ip = *sys.ip_of(victim);
  sys.set_agent_online(victim_ip, false);
  const auto size_before = list.size();
  sys.query_trust(0, 7);
  EXPECT_EQ(list.size(), size_before - 1);
  EXPECT_GE(list.backup_size(), 1u);
  EXPECT_FALSE(list.contains(victim));
}

TEST(HirepSystem, RefillRestoresBackupAgentWhenOnlineAgain) {
  auto opts = small_options(CryptoMode::kFast);
  HirepSystem sys(opts);
  auto& list = sys.peer(0).agents();
  ASSERT_GT(list.size(), 0u);
  const auto victim = list.entries()[0].agent_id;
  const auto victim_ip = *sys.ip_of(victim);
  sys.set_agent_online(victim_ip, false);
  sys.query_trust(0, 7);  // moves to backup
  sys.set_agent_online(victim_ip, true);
  sys.refill(0);
  EXPECT_TRUE(list.contains(victim));
}

TEST(HirepSystem, SetAgentOnlineRejectsNonAgents) {
  HirepSystem sys(small_options(CryptoMode::kFast));
  net::NodeIndex non_agent = 0;
  while (sys.agent_at(non_agent) != nullptr) ++non_agent;
  EXPECT_THROW(sys.set_agent_online(non_agent, false), std::invalid_argument);
  EXPECT_FALSE(sys.agent_online(non_agent));
}

TEST(HirepSystem, ShareableListPrefersOwnList) {
  HirepSystem sys(small_options(CryptoMode::kFast));
  net::NodeIndex peer_with_list = 0;
  while (sys.peer(peer_with_list).agents().size() == 0) ++peer_with_list;
  const auto shared = sys.shareable_list(peer_with_list);
  EXPECT_EQ(shared.size(), sys.peer(peer_with_list).agents().size());
}

TEST(HirepSystem, TrustMessageTotalGrowsMonotonically) {
  HirepSystem sys(small_options(CryptoMode::kFast));
  const auto t0 = sys.trust_message_total();
  sys.run_transaction();
  const auto t1 = sys.trust_message_total();
  EXPECT_GT(t1, t0);
}

TEST(HirepSystem, RejectsDegenerateWorlds) {
  HirepOptions o = small_options();
  o.nodes = 4;
  EXPECT_THROW(HirepSystem{o}, std::invalid_argument);
}

}  // namespace
}  // namespace hirep::core
