#include "sim/params.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/absolute_trust.hpp"
#include "baselines/differential_gossip.hpp"
#include "baselines/rca.hpp"

namespace hirep::sim {
namespace {

TEST(Params, DefaultsMatchTable1) {
  const Params p;
  EXPECT_EQ(p.network_size, 1000u);
  EXPECT_DOUBLE_EQ(p.neighbors_per_node, 4.0);
  EXPECT_DOUBLE_EQ(p.good_rating_lo, 0.6);
  EXPECT_DOUBLE_EQ(p.good_rating_hi, 1.0);
  EXPECT_DOUBLE_EQ(p.bad_rating_lo, 0.0);
  EXPECT_DOUBLE_EQ(p.bad_rating_hi, 0.4);
  EXPECT_EQ(p.trusted_agents, 10u);
  EXPECT_DOUBLE_EQ(p.malicious_ratio, 0.10);
  EXPECT_EQ(p.voting_ttl, 4u);
  EXPECT_EQ(p.tokens, 10u);
  EXPECT_EQ(p.discovery_ttl, 7u);
}

TEST(Params, ConfigOverrides) {
  const auto cfg = util::Config::from_string(
      "network_size=500 malicious_ratio=0.25 trusted_agents=8 crypto=full "
      "eviction_threshold=0.6 seed=99");
  const auto p = Params::from_config(cfg);
  EXPECT_EQ(p.network_size, 500u);
  EXPECT_DOUBLE_EQ(p.malicious_ratio, 0.25);
  EXPECT_EQ(p.trusted_agents, 8u);
  EXPECT_EQ(p.crypto_mode, "full");
  EXPECT_DOUBLE_EQ(p.eviction_threshold, 0.6);
  EXPECT_EQ(p.seed, 99u);
}

TEST(Params, InvalidCryptoModeRejected) {
  const auto cfg = util::Config::from_string("crypto=quantum");
  EXPECT_THROW(Params::from_config(cfg), std::invalid_argument);
}

TEST(Params, HirepOptionsMirrorParams) {
  Params p;
  p.network_size = 300;
  p.trusted_agents = 7;
  p.relays_per_onion = 4;
  p.eviction_threshold = 0.8;
  p.crypto_mode = "full";
  const auto o = p.hirep_options();
  EXPECT_EQ(o.nodes, 300u);
  EXPECT_EQ(o.trusted_agents, 7u);
  EXPECT_EQ(o.onion_relays, 4u);
  EXPECT_DOUBLE_EQ(o.eviction_threshold, 0.8);
  EXPECT_EQ(o.crypto, core::CryptoMode::kFull);
  EXPECT_DOUBLE_EQ(o.world.malicious_ratio, p.malicious_ratio);
}

TEST(Params, VotingOptionsMirrorParams) {
  Params p;
  p.network_size = 250;
  p.voting_ttl = 6;
  p.neighbors_per_node = 3.0;
  const auto o = p.voting_options();
  EXPECT_EQ(o.nodes, 250u);
  EXPECT_EQ(o.ttl, 6u);
  EXPECT_DOUBLE_EQ(o.average_degree, 3.0);
}

TEST(Params, TrustMeOptionsMirrorParams) {
  Params p;
  p.network_size = 222;
  const auto o = p.trustme_options();
  EXPECT_EQ(o.nodes, 222u);
}

TEST(Params, EveryArchitectureBuildsTheSameWorld) {
  Params p;
  p.network_size = 64;
  p.neighbors_per_node = 3.0;
  p.malicious_ratio = 0.3;
  const core::HirepSystem hirep(p.hirep_options());
  const baselines::PureVotingSystem voting(p.voting_options());
  const baselines::TrustMeSystem trustme(p.trustme_options());
  const baselines::RcaSystem rca(baselines::RcaOptions{p.world_options()});
  const baselines::AbsoluteTrustSystem abs_trust(
      baselines::AbsoluteTrustOptions{p.world_options()});
  const baselines::DifferentialGossipSystem gossip(
      baselines::DifferentialGossipOptions{p.world_options()});
  const trust::World* const others[] = {&voting, &trustme, &rca, &abs_trust,
                                        &gossip};
  const trust::GroundTruth& truth = hirep.truth();
  const net::Graph& graph = hirep.overlay().graph();
  ASSERT_GT(truth.poor_evaluator_count(), 0u);
  for (const trust::World* world : others) {
    ASSERT_EQ(world->truth().node_count(), 64u);
    for (net::NodeIndex v = 0; v < 64; ++v) {
      EXPECT_EQ(world->truth().trustable(v), truth.trustable(v)) << v;
      EXPECT_EQ(world->truth().poor_evaluator(v), truth.poor_evaluator(v))
          << v;
      EXPECT_EQ(world->truth().bandwidth_kbps(v), truth.bandwidth_kbps(v))
          << v;
      const auto mine = world->overlay().graph().neighbors(v);
      const auto ref = graph.neighbors(v);
      EXPECT_TRUE(std::equal(mine.begin(), mine.end(), ref.begin(), ref.end()))
          << v;
    }
  }
}

TEST(Params, Table1HasAllRows) {
  const Params p;
  const auto t = p.table1();
  EXPECT_EQ(t.columns(), 4u);
  EXPECT_GE(t.rows(), 14u);
}

}  // namespace
}  // namespace hirep::sim
