#include "gnutella/session.hpp"

#include <gtest/gtest.h>

#include <initializer_list>

namespace hirep::gnutella {
namespace {

core::HirepOptions system_options() {
  core::HirepOptions o;
  o.nodes = 150;
  o.rsa_bits = 64;
  o.trusted_agents = 6;
  o.onion_relays = 2;
  o.crypto = core::CryptoMode::kFast;
  o.seed = 9;
  o.world.malicious_ratio = 0.2;
  return o;
}

SessionOptions session_options() {
  SessionOptions s;
  s.catalog.files = 15;
  s.catalog.min_replicas = 4;
  s.catalog.max_replicas = 50;
  s.query_ttl = 4;
  s.max_candidates = 4;
  return s;
}

struct SessionFixture : ::testing::Test {
  SessionFixture() : system(system_options()), session(&system, session_options()) {}
  core::HirepSystem system;
  FileSharingSession session;
};

TEST_F(SessionFixture, DownloadFollowsFigureOneFlow) {
  const auto rec = session.download(0, /*file=*/0);
  ASSERT_TRUE(rec.found);
  EXPECT_NE(rec.provider, net::kInvalidNode);
  EXPECT_TRUE(session.catalog().has_file(rec.provider, 0));
  EXPECT_GT(rec.search_messages, 0u);
  EXPECT_GT(rec.candidates, 0u);
  EXPECT_LE(rec.candidates, 4u);
  // Trust traffic: per checked candidate 2(o+1) query legs + one report
  // phase for the chosen provider — bounded, never a flood.
  EXPECT_GT(rec.trust_messages, 0u);
  EXPECT_LT(rec.trust_messages, 1000u);
}

TEST_F(SessionFixture, PollutionMatchesProviderTruth) {
  for (int i = 0; i < 10; ++i) {
    const auto rec = session.download(static_cast<net::NodeIndex>(i), 0);
    if (!rec.found) continue;
    EXPECT_EQ(rec.polluted, !system.truth().trustable(rec.provider));
  }
}

TEST_F(SessionFixture, StatisticsAccumulate) {
  std::size_t found = 0;
  for (int i = 0; i < 20; ++i) {
    found += session.download(static_cast<net::NodeIndex>(i % 10)).found;
  }
  EXPECT_EQ(session.downloads(), found);
  EXPECT_LE(session.polluted_downloads(), session.downloads());
}

TEST_F(SessionFixture, TrustFilteringBeatsBlindChoice) {
  // Run downloads from a small active community; compare the realized
  // pollution rate against the blind expectation (= untrustable share of
  // all copies of the requested files).
  std::size_t polluted = 0, total = 0;
  for (int i = 0; i < 150; ++i) {
    const auto rec = session.download(static_cast<net::NodeIndex>(i % 8));
    if (!rec.found) continue;
    ++total;
    polluted += rec.polluted;
  }
  ASSERT_GT(total, 50u);
  const double rate = static_cast<double>(polluted) / static_cast<double>(total);
  // ~50% of providers are untrustable (trustable_ratio 0.5); the session
  // must do far better than blind choice.
  EXPECT_LT(rate, 0.25);
}

TEST_F(SessionFixture, SearchAndTrustTrafficSeparated) {
  const auto& ledger = system.transport().envelopes();
  const auto hops = [&ledger](std::initializer_list<net::EnvelopeType> types) {
    std::uint64_t sum = 0;
    for (const auto type : types) sum += ledger.of(type).hop_messages;
    return sum;
  };
  const auto search_hops = [&] {
    return hops({net::EnvelopeType::kQuery, net::EnvelopeType::kQueryHit});
  };
  const auto maintenance_hops = [&] {
    return hops({net::EnvelopeType::kAgentListRequest,
                 net::EnvelopeType::kAgentListReply,
                 net::EnvelopeType::kProbe, net::EnvelopeType::kKeyRotation});
  };
  const std::uint64_t total0 = ledger.total_hop_messages();
  const std::uint64_t search0 = search_hops();
  const std::uint64_t maintenance0 = maintenance_hops();

  const auto rec = session.download(0, 0);
  ASSERT_TRUE(rec.found);
  EXPECT_GT(rec.search_messages, 0u);
  EXPECT_GT(rec.trust_messages, 0u);
  // Search traffic is exactly the QUERY/QUERYHIT envelopes, and every
  // message of the download is search, trust or maintenance traffic.
  EXPECT_EQ(search_hops() - search0, rec.search_messages);
  EXPECT_EQ(ledger.total_hop_messages() - total0,
            rec.search_messages + rec.trust_messages +
                (maintenance_hops() - maintenance0));
}

TEST(FileSharingSession, UnfindableFileReportsNotFound) {
  auto opts = system_options();
  core::HirepSystem system(opts);
  SessionOptions s = session_options();
  s.query_ttl = 0;  // nothing reachable
  FileSharingSession session(&system, s);
  const auto rec = session.download(0, 0);
  EXPECT_FALSE(rec.found);
  EXPECT_EQ(session.downloads(), 0u);
}

}  // namespace
}  // namespace hirep::gnutella
