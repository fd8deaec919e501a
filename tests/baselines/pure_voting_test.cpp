#include "baselines/pure_voting.hpp"

#include <gtest/gtest.h>

namespace hirep::baselines {
namespace {

VotingOptions small_options() {
  VotingOptions o;
  o.nodes = 200;
  o.average_degree = 4.0;
  o.ttl = 4;
  o.seed = 5;
  o.world.malicious_ratio = 0.0;
  return o;
}

TEST(PureVoting, PollReachesVotersAndCountsTraffic) {
  PureVotingSystem sys(small_options());
  const auto r = sys.poll(0, 1);
  EXPECT_GT(r.votes, 10u);
  EXPECT_GT(r.messages, r.votes);  // flood + responses exceed vote count
  EXPECT_EQ(sys.transport().envelopes().total_hop_messages(), r.messages);
}

TEST(PureVoting, HonestVotesLandOnCorrectSide) {
  PureVotingSystem sys(small_options());
  for (net::NodeIndex provider = 1; provider < 20; ++provider) {
    const auto r = sys.poll(0, provider);
    if (r.votes == 0) continue;
    if (sys.truth().trustable(provider)) {
      EXPECT_GT(r.estimate, 0.5);
    } else {
      EXPECT_LT(r.estimate, 0.5);
    }
  }
}

TEST(PureVoting, MaliciousVotersDegradeEstimate) {
  auto honest_opts = small_options();
  auto bad_opts = small_options();
  bad_opts.world.malicious_ratio = 0.5;
  PureVotingSystem honest(honest_opts);
  PureVotingSystem corrupted(bad_opts);

  // Compare average absolute error across many polls.
  auto error_of = [](PureVotingSystem& sys) {
    double err = 0;
    int n = 0;
    for (net::NodeIndex p = 1; p < 40; ++p) {
      const auto r = sys.poll(0, p);
      if (r.votes == 0) continue;
      err += std::abs(r.estimate - sys.truth().true_trust(p));
      ++n;
    }
    return err / n;
  };
  EXPECT_LT(error_of(honest), error_of(corrupted));
}

TEST(PureVoting, ProviderDoesNotVoteOnItself) {
  PureVotingSystem sys(small_options());
  // Poll a neighbor of the requestor so the provider is surely reached.
  const auto nbs = sys.overlay().graph().neighbors(0);
  ASSERT_FALSE(nbs.empty());
  const auto provider = nbs[0];
  const auto flood_reach =
      net::flood(sys.transport(), 0, 4, net::EnvelopeType::kProbe)
          .reached.size();
  const auto r = sys.poll(0, provider);
  EXPECT_EQ(r.votes, flood_reach - 1);  // everyone reached except provider
}

TEST(PureVoting, TransactionRecordConsistent) {
  PureVotingSystem sys(small_options());
  const auto rec = sys.run_transaction();
  EXPECT_NE(rec.requestor, rec.provider);
  EXPECT_EQ(rec.truth_value, sys.truth().true_trust(rec.provider));
  EXPECT_GT(rec.trust_messages, 0u);
}

TEST(PureVoting, TimedPollProducesPositiveResponseTime) {
  PureVotingSystem sys(small_options());
  const auto r = sys.poll_timed(0, 1);
  EXPECT_GT(r.votes, 0u);
  EXPECT_GT(r.response_ms, 0.0);
  // At least one round trip of min latency + processing.
  EXPECT_GE(r.response_ms, 2 * (10.0 + 1.0));
}

TEST(PureVoting, TimedPollScalesWithVoteCount) {
  // The requestor ingests every vote serially, so response time is at
  // least votes * processing_ms.
  PureVotingSystem sys(small_options());
  const auto r = sys.poll_timed(0, 1);
  EXPECT_GE(r.response_ms, static_cast<double>(r.votes) *
                               sys.overlay().latency().processing_ms());
}

TEST(PureVoting, LargerTtlMoreTraffic) {
  auto o1 = small_options();
  o1.ttl = 2;
  auto o2 = small_options();
  o2.ttl = 4;
  PureVotingSystem shallow(o1), deep(o2);
  const auto r1 = shallow.poll(0, 1);
  const auto r2 = deep.poll(0, 1);
  EXPECT_LT(r1.messages, r2.messages);
}

TEST(PureVoting, DeterministicGivenSeed) {
  PureVotingSystem a(small_options()), b(small_options());
  const auto ra = a.run_transaction();
  const auto rb = b.run_transaction();
  EXPECT_EQ(ra.requestor, rb.requestor);
  EXPECT_EQ(ra.provider, rb.provider);
  EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
  EXPECT_EQ(ra.trust_messages, rb.trust_messages);
}

}  // namespace
}  // namespace hirep::baselines
