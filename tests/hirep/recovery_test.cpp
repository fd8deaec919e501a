// §3.4.3 failover hardening: the suspicion ladder shared across
// requestors, quarantine entry and its probe-only exit, the backup-cache
// promotion path, and graceful degradation to first-hand trust under a
// live-rating quorum.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "hirep/system.hpp"
#include "util/rng.hpp"

namespace hirep::core {
namespace {

HirepOptions small_options() {
  HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 5;
  o.onion_relays = 3;
  o.crypto = CryptoMode::kFast;
  o.seed = 11;
  o.world.malicious_ratio = 0.0;
  return o;
}

/// Peers whose trusted list holds `agent_id` (excluding the agent itself).
std::vector<net::NodeIndex> requestors_of(HirepSystem& sys,
                                          const crypto::NodeId& agent_id) {
  std::vector<net::NodeIndex> out;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.peer(v).node_id() == agent_id) continue;
    if (sys.peer(v).agents().contains(agent_id)) out.push_back(v);
  }
  return out;
}

/// An agent listed by at least `min_requestors` distinct peers, with its
/// overlay index and those peers.
struct SharedAgent {
  crypto::NodeId id;
  net::NodeIndex ip = net::kInvalidNode;
  std::vector<net::NodeIndex> requestors;
};
SharedAgent find_shared_agent(HirepSystem& sys, std::size_t min_requestors) {
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    for (const auto& entry : sys.peer(v).agents().entries()) {
      auto reqs = requestors_of(sys, entry.agent_id);
      if (reqs.size() >= min_requestors) {
        return {entry.agent_id, *sys.ip_of(entry.agent_id), std::move(reqs)};
      }
    }
  }
  return {};
}

net::NodeIndex subject_other_than(const HirepSystem& sys, net::NodeIndex a,
                                  net::NodeIndex b) {
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (v != a && v != b) return v;
  }
  return net::kInvalidNode;
}

TEST(Recovery, SharedSuspicionCrossesTheThresholdAndQuarantines) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 2;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 2);
  ASSERT_NE(shared.ip, net::kInvalidNode);

  sys.set_agent_online(shared.ip, false);
  const auto subject = subject_other_than(sys, shared.requestors[0], shared.ip);
  sys.query_trust(shared.requestors[0], subject);
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));  // one strike, not two
  EXPECT_GE(sys.recovery_counters().suspicions, 1u);

  // A second requestor's failed exchange crosses the shared threshold.
  sys.query_trust(shared.requestors[1],
                  subject_other_than(sys, shared.requestors[1], shared.ip));
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_GE(sys.recovery_counters().quarantines, 1u);
}

TEST(Recovery, SuccessfulExchangeResetsTheSuspicionLadder) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 2;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 3);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  ASSERT_GE(shared.requestors.size(), 3u);

  // Strike one while the agent is down...
  sys.set_agent_online(shared.ip, false);
  sys.query_trust(shared.requestors[0],
                  subject_other_than(sys, shared.requestors[0], shared.ip));
  ASSERT_FALSE(sys.agent_quarantined(shared.ip));

  // ...then a successful exchange wipes the ladder clean...
  sys.set_agent_online(shared.ip, true);
  sys.query_trust(shared.requestors[1],
                  subject_other_than(sys, shared.requestors[1], shared.ip));

  // ...so a later single failure is strike one again, not strike two.
  sys.set_agent_online(shared.ip, false);
  sys.query_trust(shared.requestors[2],
                  subject_other_than(sys, shared.requestors[2], shared.ip));
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));
}

TEST(Recovery, QuarantinedAgentIsNeverContacted) {
  HirepSystem sys(small_options());
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];
  const std::size_t listed = sys.peer(r).agents().size();
  ASSERT_GE(listed, 1u);

  sys.quarantine_agent(shared.ip);  // agent itself stays online
  const auto before =
      sys.transport().envelopes().of(net::EnvelopeType::kTrustRequest).sent;
  const auto result =
      sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  const auto after =
      sys.transport().envelopes().of(net::EnvelopeType::kTrustRequest).sent;

  // The community has given up: no request even leaves the requestor for
  // the quarantined agent, while every other listed agent is still asked.
  EXPECT_EQ(after - before, listed - 1);
  EXPECT_EQ(result.ratings.size(), listed - 1);
}

TEST(Recovery, QuarantineSurvivesRestartUntilProbed) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 1;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  sys.set_agent_online(shared.ip, false);
  sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  ASSERT_TRUE(sys.agent_quarantined(shared.ip));
  ASSERT_FALSE(sys.peer(r).agents().contains(shared.id));

  // Refill while the agent is still dark: the probe reaches the node but
  // finds no live agent, so the quarantine stands and the list refills
  // from discovery — which must skip the quarantined agent (the
  // hirep.quarantine.fresh_probe gate stays silent throughout).
  check::ScopedCapture capture;
  sys.refill(r);
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_FALSE(sys.peer(r).agents().contains(shared.id));
  EXPECT_EQ(capture.count(), 0u);

  // A bare restart is not fresh evidence either: still quarantined.
  sys.set_agent_online(shared.ip, true);
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
}

TEST(Recovery, FreshProbeLiftsQuarantineAndPromotesTheBackup) {
  HirepOptions o = small_options();
  o.recovery.suspicion_threshold = 1;
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  sys.set_agent_online(shared.ip, false);
  sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  ASSERT_TRUE(sys.agent_quarantined(shared.ip));
  ASSERT_GE(sys.peer(r).agents().backup_size(), 1u);

  sys.set_agent_online(shared.ip, true);
  check::ScopedCapture capture;
  sys.refill(r);
  // The delivered probe to the live agent is exactly the fresh evidence
  // that lifts the quarantine and readmits the backup entry.
  EXPECT_FALSE(sys.agent_quarantined(shared.ip));
  EXPECT_TRUE(sys.peer(r).agents().contains(shared.id));
  EXPECT_GE(sys.recovery_counters().probations_cleared, 1u);
  EXPECT_GE(sys.recovery_counters().backup_promotions, 1u);
  EXPECT_EQ(capture.count(), 0u);  // probe-backed admission passes the gate
}

TEST(Recovery, BelowQuorumQueryDegradesToFirstHandTrust) {
  HirepOptions o = small_options();
  o.recovery.min_quorum = o.nodes;  // unreachable: every query degrades
  HirepSystem sys(o);
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  const auto result = sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(sys.recovery_counters().degraded_queries, 1u);
  EXPECT_GE(result.estimate, 0.0);
  EXPECT_LE(result.estimate, 1.0);
}

TEST(Recovery, QuorumZeroDisablesDegradation) {
  HirepSystem sys(small_options());  // min_quorum defaults to 0
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);
  const auto r = shared.requestors[0];

  // Even a total blackout produces an undegraded (neutral) estimate.
  for (const auto& entry : sys.peer(r).agents().entries()) {
    sys.set_agent_online(*sys.ip_of(entry.agent_id), false);
  }
  const auto result = sys.query_trust(r, subject_other_than(sys, r, shared.ip));
  EXPECT_TRUE(result.ratings.empty());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(sys.recovery_counters().degraded_queries, 0u);
}

TEST(Recovery, QuarantineHookValidatesAndCountsOnce) {
  HirepSystem sys(small_options());
  const auto shared = find_shared_agent(sys, 1);
  ASSERT_NE(shared.ip, net::kInvalidNode);

  sys.quarantine_agent(shared.ip);
  sys.quarantine_agent(shared.ip);  // idempotent: one tally
  EXPECT_TRUE(sys.agent_quarantined(shared.ip));
  EXPECT_EQ(sys.recovery_counters().quarantines, 1u);

  // Non-agent nodes are rejected outright.
  net::NodeIndex non_agent = net::kInvalidNode;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    if (sys.agent_at(v) == nullptr) {
      non_agent = v;
      break;
    }
  }
  ASSERT_NE(non_agent, net::kInvalidNode);
  EXPECT_THROW(sys.quarantine_agent(non_agent), std::invalid_argument);
}

TEST(Recovery, QuarantineKeepsReservedOnionSqsAlignedOnEveryExecutor) {
  // Wave formation reserves one onion sq per agent an exchange will
  // contact, in list order, and each exchange consumes the next one.  A
  // quarantined agent is never contacted, so it must not be reserved for
  // either: otherwise every later agent of that requestor takes its
  // predecessor's sq and the held onion can go backwards.
  if (!check::kEnabled) GTEST_SKIP() << "needs HIREP_CHECKS=ON";
  HirepOptions o = small_options();
  o.nodes = 400;
  util::Rng rng(5);
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  while (pairs.size() < 800) {
    const auto r = static_cast<net::NodeIndex>(rng.below(o.nodes));
    const auto p = static_cast<net::NodeIndex>(rng.below(o.nodes));
    if (r != p) pairs.emplace_back(r, p);
  }
  const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(pairs);

  for (const Executor& exec : {Executor::serial(), Executor::parallel(2)}) {
    SCOPED_TRACE(to_string(exec.mode));
    HirepSystem sys(o);
    check::ScopedCapture capture;
    sys.run_transactions(all.first(400), exec);

    // Ten online agents, taken in peer order, go into quarantine.
    std::set<net::NodeIndex> quarantined;
    for (net::NodeIndex v = 0; v < sys.node_count() && quarantined.size() < 10;
         ++v) {
      for (const auto& entry : sys.peer(v).agents().entries()) {
        const auto ip = *sys.ip_of(entry.agent_id);
        if (quarantined.size() < 10 && quarantined.insert(ip).second) {
          sys.quarantine_agent(ip);
        }
      }
    }
    sys.run_transactions(all.subspan(400), exec);
    EXPECT_FALSE(capture.fired("onion.sq.holder_monotone"));
    EXPECT_EQ(capture.count(), 0u);
  }
}

}  // namespace
}  // namespace hirep::core
