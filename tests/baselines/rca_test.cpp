#include "baselines/rca.hpp"

#include <gtest/gtest.h>

namespace hirep::baselines {
namespace {

RcaOptions small_options() {
  RcaOptions o;
  o.nodes = 150;
  o.seed = 4;
  o.world.malicious_ratio = 0.0;
  return o;
}

TEST(Rca, ConstantThreeMessagesPerTransaction) {
  RcaSystem sys(small_options());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sys.run_transaction().trust_messages, 3u);
  }
}

TEST(Rca, LearnsFromReports) {
  RcaSystem sys(small_options());
  const net::NodeIndex provider = 7;
  EXPECT_DOUBLE_EQ(sys.run_transaction(0, provider).estimate, 0.5);
  for (int i = 0; i < 5; ++i) sys.run_transaction(0, provider);
  const auto rec = sys.run_transaction(1, provider);
  EXPECT_NEAR(rec.estimate, sys.truth().true_trust(provider), 0.05);
  EXPECT_GT(sys.reports_stored(), 0u);
}

TEST(Rca, SinglePointOfFailure) {
  RcaSystem sys(small_options());
  sys.run_transaction(0, 7);
  sys.set_rca_online(false);
  const auto rec = sys.run_transaction(1, 7);
  EXPECT_EQ(rec.responses, 0u);
  EXPECT_DOUBLE_EQ(rec.estimate, 0.5);    // no information at all
  EXPECT_EQ(rec.trust_messages, 0u);
  EXPECT_EQ(sys.transport().envelopes().total_sent(), 3u);  // the first run
  sys.set_rca_online(true);
  EXPECT_EQ(sys.run_transaction(1, 7).responses, 1u);
}

TEST(Rca, LostMessagesAreNeitherAnsweredNorStored) {
  auto o = small_options();
  o.delivery.policy = net::DeliveryPolicyKind::kFaulty;
  o.delivery.faults.drop_rate = 1.0;
  RcaSystem sys(o);
  const auto rec = sys.run_transaction(0, 7);
  EXPECT_EQ(rec.responses, 0u);
  EXPECT_DOUBLE_EQ(rec.estimate, 0.5);
  EXPECT_EQ(sys.reports_stored(), 0u);
  // The request and the report each leave once; no response follows a
  // request that never arrived.
  EXPECT_EQ(rec.trust_messages, 2u);
  const auto& ledger = sys.transport().envelopes();
  EXPECT_EQ(ledger.of(net::EnvelopeType::kTrustRequest).dropped, 1u);
  EXPECT_EQ(ledger.of(net::EnvelopeType::kTrustResponse).sent, 0u);
  EXPECT_EQ(ledger.of(net::EnvelopeType::kReport).dropped, 1u);
}

TEST(Rca, BottleneckSerializesConcurrentQueries) {
  RcaSystem sys(small_options());
  // The last of N concurrent queries waits behind N-1 serial handlings at
  // the RCA: the burst completion grows roughly linearly in N.
  const double small_burst = sys.timed_query_burst_ms(10);
  const double large_burst = sys.timed_query_burst_ms(500);
  EXPECT_GT(large_burst, small_burst + 400.0 * 1.0 * 0.9);
}

TEST(Rca, DeterministicGivenSeed) {
  RcaSystem a(small_options()), b(small_options());
  for (int i = 0; i < 10; ++i) {
    const auto ra = a.run_transaction();
    const auto rb = b.run_transaction();
    EXPECT_EQ(ra.provider, rb.provider);
    EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
  }
}

}  // namespace
}  // namespace hirep::baselines
