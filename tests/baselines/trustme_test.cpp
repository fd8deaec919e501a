#include "baselines/trustme.hpp"

#include <gtest/gtest.h>

namespace hirep::baselines {
namespace {

TrustMeOptions small_options() {
  TrustMeOptions o;
  o.nodes = 150;
  o.average_degree = 4.0;
  o.ttl = 5;
  o.thas_per_peer = 4;
  o.seed = 3;
  o.world.malicious_ratio = 0.0;
  return o;
}

TEST(TrustMe, ThaAssignmentShape) {
  TrustMeSystem sys(small_options());
  for (net::NodeIndex peer = 0; peer < 150; ++peer) {
    const auto& thas = sys.thas_of(peer);
    EXPECT_LE(thas.size(), 4u);
    EXPECT_GE(thas.size(), 3u);  // sampling may drop the self-index pick
    for (auto t : thas) EXPECT_NE(t, peer);
  }
}

TEST(TrustMe, FirstQueryIsUninformed) {
  TrustMeSystem sys(small_options());
  const auto rec = sys.run_transaction(0, 1);
  // THAs had no reports yet: every answer is the 0.5 prior.
  if (rec.responses > 0) {
    EXPECT_DOUBLE_EQ(rec.estimate, 0.5);
  }
}

TEST(TrustMe, LearnsFromReportBroadcasts) {
  TrustMeSystem sys(small_options());
  // Repeat transactions with the same provider; its THAs accumulate real
  // outcomes and later estimates match the truth.
  const net::NodeIndex provider = 9;
  for (int i = 0; i < 10; ++i) sys.run_transaction(0, provider);
  const auto rec = sys.run_transaction(0, provider);
  if (rec.responses > 0) {
    EXPECT_NEAR(rec.estimate, sys.truth().true_trust(provider), 0.05);
  }
}

TEST(TrustMe, DoubleBroadcastCostsMoreThanOneFlood) {
  TrustMeSystem sys(small_options());
  const auto rec = sys.run_transaction(0, 1);
  // Compare with a single flood of the same TTL.
  TrustMeSystem fresh(small_options());
  const auto one_flood =
      net::flood(fresh.transport(), 0, 5, net::EnvelopeType::kProbe).messages;
  EXPECT_GT(rec.trust_messages, one_flood);
}

TEST(TrustMe, MaliciousThaInverts) {
  auto opts = small_options();
  opts.world.malicious_ratio = 1.0;  // all THAs malicious
  TrustMeSystem sys(opts);
  const net::NodeIndex provider = 5;
  for (int i = 0; i < 8; ++i) sys.run_transaction(0, provider);
  const auto rec = sys.run_transaction(0, provider);
  if (rec.responses > 0) {
    // Estimates are inverted relative to the truth.
    EXPECT_NEAR(rec.estimate, 1.0 - sys.truth().true_trust(provider), 0.05);
  }
}

TEST(TrustMe, RandomTransactionRuns) {
  TrustMeSystem sys(small_options());
  for (int i = 0; i < 5; ++i) {
    const auto rec = sys.run_transaction();
    EXPECT_NE(rec.requestor, rec.provider);
    EXPECT_GT(rec.trust_messages, 0u);
  }
}

}  // namespace
}  // namespace hirep::baselines
