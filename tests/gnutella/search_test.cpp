#include "gnutella/search.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.hpp"

namespace hirep::gnutella {
namespace {

struct SearchFixture : ::testing::Test {
  SearchFixture()
      : rng(1),
        overlay(net::power_law(rng, 200, 4.0), net::LatencyParams{}, 1),
        transport(&overlay, net::DeliveryConfig{}, 1),
        catalog(rng, 200, [] {
          CatalogParams p;
          p.files = 10;
          p.min_replicas = 5;
          p.max_replicas = 60;
          return p;
        }()) {}

  util::Rng rng;
  net::Overlay overlay;
  net::Transport transport;
  ContentCatalog catalog;
};

TEST_F(SearchFixture, FindsPopularFile) {
  const auto result = search(transport, catalog, 0, 0, 4);
  EXPECT_TRUE(result.found());
  EXPECT_GT(result.query_messages, 0u);
  EXPECT_GT(result.hit_messages, 0u);
  for (const auto& hit : result.hits) {
    EXPECT_TRUE(catalog.has_file(hit.provider, 0));
    EXPECT_GE(hit.hops, 1u);
    EXPECT_LE(hit.hops, 4u);
  }
}

TEST_F(SearchFixture, HitsOnlyFromReachedProviders) {
  // TTL 1: only direct neighbors can answer.
  const auto result = search(transport, catalog, 0, 0, 1);
  const auto nbs = overlay.graph().neighbors(0);
  for (const auto& hit : result.hits) {
    EXPECT_NE(std::find(nbs.begin(), nbs.end(), hit.provider), nbs.end());
  }
}

TEST_F(SearchFixture, RequestorOwnCopyDoesNotHit) {
  // Give the flood a file the requestor itself holds.
  net::NodeIndex holder = catalog.providers_of(0)[0];
  const auto result = search(transport, catalog, holder, 0, 4);
  for (const auto& hit : result.hits) EXPECT_NE(hit.provider, holder);
}

TEST_F(SearchFixture, RareFilesHarderToFind) {
  std::size_t popular_hits = 0, rare_hits = 0;
  for (net::NodeIndex start = 0; start < 20; ++start) {
    popular_hits += search(transport, catalog, start, 0, 3).hits.size();
    rare_hits += search(transport, catalog, start, 9, 3).hits.size();
  }
  EXPECT_GT(popular_hits, rare_hits);
}

TEST_F(SearchFixture, TrafficCountedUnderQueryKind) {
  const auto result = search(transport, catalog, 0, 0, 3);
  const auto& ledger = transport.envelopes();
  EXPECT_EQ(ledger.of(net::EnvelopeType::kQuery).hop_messages,
            result.query_messages);
  EXPECT_EQ(ledger.of(net::EnvelopeType::kQueryHit).hop_messages,
            result.hit_messages);
  // One QueryHit envelope per hit, each travelling its hit's distance.
  EXPECT_EQ(ledger.of(net::EnvelopeType::kQueryHit).delivered,
            result.hits.size());
  std::uint64_t hops = 0;
  for (const auto& hit : result.hits) hops += hit.hops;
  EXPECT_EQ(result.hit_messages, hops);
  // Search traffic is all there is: no trust-type envelope was sent.
  EXPECT_EQ(ledger.total_hop_messages(),
            result.query_messages + result.hit_messages);
}

TEST_F(SearchFixture, LostQueryHitsNeverReachTheRequestor) {
  // Every QUERY copy lands; every QUERYHIT is lost on its first hop back.
  struct DropHits final : net::DeliveryPolicy {
    net::HopDecision on_hop(const net::Envelope& envelope, net::NodeIndex,
                            net::NodeIndex) override {
      net::HopDecision decision;
      decision.drop = envelope.type == net::EnvelopeType::kQueryHit;
      return decision;
    }
    const char* name() const noexcept override { return "drop-hits"; }
  };
  const auto reached = search(transport, catalog, 0, 0, 3);
  ASSERT_TRUE(reached.found());
  transport.set_policy(std::make_unique<DropHits>());
  const auto lost = search(transport, catalog, 0, 0, 3);
  EXPECT_FALSE(lost.found());
  EXPECT_EQ(lost.query_messages, reached.query_messages);
  // Each hit left its holder once and was lost there.
  EXPECT_EQ(lost.hit_messages, reached.hits.size());
}

TEST_F(SearchFixture, FirstHitTimePositiveWhenFound) {
  const double t = search_first_hit_ms(overlay, catalog, 0, 0, 4);
  EXPECT_GT(t, 0.0);
  // Round trip of at least one hop each way.
  EXPECT_GE(t, 2 * (10.0 + 1.0));
}

TEST_F(SearchFixture, FirstHitNegativeWhenNotFound) {
  // A fresh catalog where file 9 is rare; search from a node far from all
  // of its providers with TTL 0 equivalent (ttl=0 flood finds nothing).
  const double t = search_first_hit_ms(overlay, catalog, 0, 9, 0);
  EXPECT_LT(t, 0.0);
}

}  // namespace
}  // namespace hirep::gnutella
