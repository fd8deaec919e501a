// Reproducibility: a (seed, options) pair fully determines every simulated
// outcome, across all three systems.  This is what makes every figure in
// EXPERIMENTS.md regenerable bit-for-bit.
#include <gtest/gtest.h>

#include "baselines/pure_voting.hpp"
#include "baselines/trustme.hpp"
#include "hirep/system.hpp"

namespace hirep {
namespace {

core::HirepOptions options_with_seed(std::uint64_t seed) {
  core::HirepOptions o;
  o.nodes = 64;
  o.rsa_bits = 64;
  o.trusted_agents = 4;
  o.onion_relays = 2;
  o.crypto = core::CryptoMode::kFast;
  o.seed = seed;
  return o;
}

TEST(Determinism, HirepIdenticalRunsIdenticalResults) {
  core::HirepSystem a(options_with_seed(5)), b(options_with_seed(5));
  for (int i = 0; i < 25; ++i) {
    const auto ra = a.run_transaction();
    const auto rb = b.run_transaction();
    EXPECT_EQ(ra.requestor, rb.requestor);
    EXPECT_EQ(ra.provider, rb.provider);
    EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
    EXPECT_EQ(ra.responses, rb.responses);
    EXPECT_EQ(ra.trust_messages, rb.trust_messages);
  }
  EXPECT_EQ(a.transport().envelopes().total_hop_messages(),
            b.transport().envelopes().total_hop_messages());
}

TEST(Determinism, HirepDifferentSeedsDiverge) {
  core::HirepSystem a(options_with_seed(5)), b(options_with_seed(6));
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) {
    const auto ra = a.run_transaction();
    const auto rb = b.run_transaction();
    diverged = ra.requestor != rb.requestor || ra.provider != rb.provider ||
               ra.estimate != rb.estimate;
  }
  EXPECT_TRUE(diverged);
}

TEST(Determinism, IdentitiesDeterministic) {
  core::HirepSystem a(options_with_seed(9)), b(options_with_seed(9));
  for (std::size_t v = 0; v < 64; ++v) {
    EXPECT_EQ(a.identities()[v].node_id(), b.identities()[v].node_id());
  }
}

TEST(Determinism, TopologyDeterministic) {
  core::HirepSystem a(options_with_seed(9)), b(options_with_seed(9));
  const auto& ga = a.overlay().graph();
  const auto& gb = b.overlay().graph();
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (net::NodeIndex v = 0; v < 64; ++v) EXPECT_EQ(ga.degree(v), gb.degree(v));
}

TEST(Determinism, PureVotingDeterministic) {
  baselines::VotingOptions o;
  o.nodes = 100;
  o.seed = 77;
  baselines::PureVotingSystem a(o), b(o);
  for (int i = 0; i < 20; ++i) {
    const auto ra = a.run_transaction();
    const auto rb = b.run_transaction();
    EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
    EXPECT_EQ(ra.trust_messages, rb.trust_messages);
  }
}

TEST(Determinism, TrustMeDeterministic) {
  baselines::TrustMeOptions o;
  o.nodes = 100;
  o.seed = 78;
  baselines::TrustMeSystem a(o), b(o);
  for (int i = 0; i < 20; ++i) {
    const auto ra = a.run_transaction();
    const auto rb = b.run_transaction();
    EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
    EXPECT_EQ(ra.trust_messages, rb.trust_messages);
  }
}

TEST(Determinism, TimedExperimentsDeterministic) {
  baselines::VotingOptions o;
  o.nodes = 120;
  o.seed = 79;
  baselines::PureVotingSystem a(o), b(o);
  const auto ta = a.poll_timed(0, 1);
  const auto tb = b.poll_timed(0, 1);
  EXPECT_DOUBLE_EQ(ta.response_ms, tb.response_ms);
  EXPECT_EQ(ta.votes, tb.votes);
}

}  // namespace
}  // namespace hirep
