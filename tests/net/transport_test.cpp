// Transport layer: typed envelopes, pluggable delivery policies, and the
// per-envelope-type accounting in net::EnvelopeMetrics.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/check.hpp"
#include "net/flood.hpp"
#include "net/topology.hpp"
#include "sequential_reference.hpp"

namespace hirep::net {
namespace {

Overlay make_overlay(std::size_t nodes = 12, std::uint64_t seed = 1) {
  return Overlay(ring_lattice(nodes, 2), LatencyParams{}, seed);
}

TEST(TransportInstant, CountsOneMessagePerHopAndDelivers) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  const std::vector<NodeIndex> path{3, 7, 2, 9};

  const auto receipt =
      transport.send(EnvelopeType::kTrustRequest, 0, path, {0xAB});

  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.destination, 9u);
  EXPECT_EQ(receipt.messages, path.size());
  EXPECT_EQ(receipt.hops, path.size());
  EXPECT_EQ(receipt.completion_ms, 0.0);
  ASSERT_EQ(receipt.payload.size(), 1u);
  EXPECT_EQ(receipt.payload[0], 0xAB);
  const auto& c = transport.envelopes().of(EnvelopeType::kTrustRequest);
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.delivered, 1u);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.hop_messages, path.size());
  EXPECT_EQ(transport.envelopes().total_hop_messages(), path.size());
}

TEST(TransportInstant, EmptyPathIsNotDelivered) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  const auto receipt = transport.send(EnvelopeType::kProbe, 0, {});
  EXPECT_FALSE(receipt.delivered);
  EXPECT_EQ(receipt.messages, 0u);
  EXPECT_EQ(transport.envelopes().total_hop_messages(), 0u);
}

TEST(TransportInstant, HopsCountUnderTheEnvelopesKind) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  transport.send(EnvelopeType::kVotePoll, 0, {1});
  transport.send(EnvelopeType::kVoteReturn, 1, {0, 2});
  transport.send(EnvelopeType::kQuery, 2, {3});
  transport.send(EnvelopeType::kQueryHit, 3, {2, 1, 0});
  const auto& ledger = transport.envelopes();
  EXPECT_EQ(ledger.of(EnvelopeType::kVotePoll).hop_messages, 1u);
  EXPECT_EQ(ledger.of(EnvelopeType::kVoteReturn).hop_messages, 2u);
  EXPECT_EQ(ledger.of(EnvelopeType::kQuery).hop_messages, 1u);
  EXPECT_EQ(ledger.of(EnvelopeType::kQueryHit).hop_messages, 3u);
  EXPECT_EQ(ledger.of(EnvelopeType::kProbe).hop_messages, 0u);
  EXPECT_EQ(ledger.total_hop_messages(), 7u);
}

TEST(TransportLatency, CompletionTimeIsTheSumOfHopDelays) {
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kLatency;
  Transport transport(&overlay, config, 1);
  const std::vector<NodeIndex> path{4, 8, 1};

  const auto receipt = transport.send(EnvelopeType::kReport, 0, path);

  ASSERT_TRUE(receipt.delivered);
  const auto& model = overlay.latency();
  double expected = 0.0;
  NodeIndex from = 0;
  for (NodeIndex to : path) {
    expected += model.link_ms(from, to) + model.processing_ms();
    from = to;
  }
  EXPECT_DOUBLE_EQ(receipt.completion_ms, expected);
  EXPECT_GT(receipt.completion_ms, 0.0);
}

TEST(TransportFaulty, DropRateOneLosesEveryEnvelopeAtTheFirstHop) {
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 1.0;
  Transport transport(&overlay, config, 1);

  for (int i = 0; i < 10; ++i) {
    const auto receipt =
        transport.send(EnvelopeType::kTrustRequest, 0, {1, 2, 3});
    EXPECT_FALSE(receipt.delivered);
    EXPECT_EQ(receipt.messages, 1u);  // left the sender, never landed
    EXPECT_EQ(receipt.hops, 0u);
  }
  const auto& c = transport.envelopes().of(EnvelopeType::kTrustRequest);
  EXPECT_EQ(c.sent, 10u);
  EXPECT_EQ(c.dropped, 10u);
  EXPECT_EQ(c.delivered, 0u);
}

TEST(TransportFaulty, DuplicateRateOneDoublesEveryTransmission) {
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.duplicate_rate = 1.0;
  Transport transport(&overlay, config, 1);
  const std::vector<NodeIndex> path{1, 2, 3};

  const auto receipt = transport.send(EnvelopeType::kReport, 0, path);

  EXPECT_TRUE(receipt.delivered);
  EXPECT_EQ(receipt.messages, 2 * path.size());
  EXPECT_EQ(transport.envelopes().of(EnvelopeType::kReport).hop_messages,
            2 * path.size());
  EXPECT_EQ(transport.envelopes().of(EnvelopeType::kReport).duplicated,
            path.size());
  // Every second copy lands at its receiver and is discarded by envelope
  // id, so handler side effects apply exactly once per hop.
  EXPECT_EQ(transport.envelopes().of(EnvelopeType::kReport).suppressed,
            path.size());
}

TEST(TransportFaulty, OutcomesAreDeterministicUnderAFixedSeed) {
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 0.3;
  config.faults.duplicate_rate = 0.2;
  config.faults.delay_min_ms = 1.0;
  config.faults.delay_max_ms = 5.0;

  const auto run = [&](std::uint64_t seed) {
    Overlay overlay = make_overlay();
    Transport transport(&overlay, config, seed);
    std::vector<std::tuple<bool, std::uint64_t, double>> outcomes;
    for (int i = 0; i < 50; ++i) {
      const auto r = transport.send(EnvelopeType::kProbe, 0, {1, 2, 3, 4});
      outcomes.emplace_back(r.delivered, r.messages, r.completion_ms);
    }
    return outcomes;
  };

  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(TransportFaulty, ConservationHoldsExactlyUnderDropsAndDuplicates) {
  // Every envelope the faulty policy touches is accounted for, exactly:
  // sent == delivered + dropped per type, and the hop-message books match
  // the receipts transmission for transmission (duplicates included).
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 0.25;
  config.faults.duplicate_rate = 0.3;
  config.faults.delay_min_ms = 0.5;
  config.faults.delay_max_ms = 2.0;

  std::uint64_t receipt_messages = 0, receipt_delivered = 0;
  std::uint64_t receipt_hops = 0;
  const std::vector<EnvelopeType> types{EnvelopeType::kTrustRequest,
                                        EnvelopeType::kTrustResponse,
                                        EnvelopeType::kReport,
                                        EnvelopeType::kProbe};
  hirep::check::ScopedCapture capture;
  {
    Transport transport(&overlay, config, 13);
    for (int i = 0; i < 400; ++i) {
      const auto type = types[static_cast<std::size_t>(i) % types.size()];
      const std::vector<NodeIndex> path{1, 2, static_cast<NodeIndex>(3 + i % 5)};
      const auto receipt = transport.send(type, 0, path);
      receipt_messages += receipt.messages;
      receipt_hops += receipt.hops;
      if (receipt.delivered) ++receipt_delivered;
    }

    std::uint64_t sent = 0, delivered = 0, dropped = 0;
    std::uint64_t duplicated = 0, hop_messages = 0, suppressed = 0;
    for (const auto type : types) {
      const auto& c = transport.envelopes().of(type);
      EXPECT_EQ(c.sent, c.delivered + c.dropped) << to_string(type);
      sent += c.sent;
      delivered += c.delivered;
      dropped += c.dropped;
      duplicated += c.duplicated;
      hop_messages += c.hop_messages;
      suppressed += c.suppressed;
    }
    EXPECT_EQ(sent, 400u);
    EXPECT_EQ(delivered, receipt_delivered);
    EXPECT_EQ(dropped, 400u - receipt_delivered);
    EXPECT_GT(dropped, 0u);     // the rates are high enough to observe both
    EXPECT_GT(duplicated, 0u);
    EXPECT_EQ(hop_messages, receipt_messages);
    EXPECT_EQ(hop_messages, receipt_hops + duplicated + dropped);
    // Duplicates are only minted on undropped hops, so every second copy
    // lands and is suppressed at its receiver — one for one.
    EXPECT_EQ(suppressed, duplicated);
    EXPECT_EQ(transport.envelopes().total_hop_messages(), receipt_messages);
  }
  // Teardown ran the envelope-conservation invariant; the books balance,
  // so it must have stayed silent.
  EXPECT_EQ(capture.count(), 0u);
}

TEST(TransportFaulty, ModerateDropRateDegradesButDoesNotWedge) {
  Overlay overlay = make_overlay();
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 0.2;
  Transport transport(&overlay, config, 7);

  std::size_t delivered = 0;
  const int sends = 200;
  for (int i = 0; i < sends; ++i) {
    if (transport.send(EnvelopeType::kTrustRequest, 0, {1, 2}).delivered) {
      ++delivered;
    }
  }
  // P(deliver) = 0.8^2 = 0.64; allow a wide band.
  EXPECT_GT(delivered, sends / 3);
  EXPECT_LT(delivered, sends);
  EXPECT_EQ(transport.envelopes().of(EnvelopeType::kTrustRequest).sent,
            static_cast<std::uint64_t>(sends));
  EXPECT_EQ(transport.envelopes().total_delivered() +
                transport.envelopes().total_dropped(),
            static_cast<std::uint64_t>(sends));
}

TEST(TransportPolicy, NamesRoundTrip) {
  EXPECT_EQ(policy_kind_by_name("instant"), DeliveryPolicyKind::kInstant);
  EXPECT_EQ(policy_kind_by_name("latency"), DeliveryPolicyKind::kLatency);
  EXPECT_EQ(policy_kind_by_name("faulty"), DeliveryPolicyKind::kFaulty);
  EXPECT_FALSE(policy_kind_by_name("carrier-pigeon").has_value());

  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  EXPECT_STREQ(transport.policy().name(), "instant");
  transport.set_policy(std::make_unique<FaultyDelivery>(FaultParams{}, 1));
  EXPECT_STREQ(transport.policy().name(), "faulty");
}

TEST(TransportFlood, InstantFloodMatchesCountedFlood) {
  Overlay overlay = make_overlay(20, 3);
  Transport transport(&overlay, DeliveryConfig{}, 3);

  const auto a = reference::flood(overlay.graph(), 0, 3);
  const auto b = flood(transport, 0, 3, EnvelopeType::kVotePoll);

  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(transport.envelopes().total_hop_messages(), a.messages);
}

TEST(TransportFlood, DropsPruneTheFloodFrontier) {
  Overlay overlay = make_overlay(20, 3);
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 1.0;
  Transport transport(&overlay, config, 3);

  const auto result = flood(transport, 0, 3, EnvelopeType::kVotePoll);
  EXPECT_TRUE(result.reached.empty());           // nothing ever lands
  EXPECT_EQ(result.messages, 4u);                // the source's 4 neighbors
}

TEST(TransportTokenWalk, InstantWalkMatchesCountedWalk) {
  Overlay overlay = make_overlay(30, 5);
  Transport transport(&overlay, DeliveryConfig{}, 5);
  util::Rng rng_a(11), rng_b(11);
  const auto consumes = [](NodeIndex v) { return v % 3 == 0; };

  const auto a =
      reference::token_walk(overlay.graph(), rng_a, 0, 6, 4, consumes);
  const auto b = token_walk(transport, rng_b, 0, 6, 4, consumes);

  ASSERT_EQ(a.visits.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(a.visits[i].node, b[i].node);
    EXPECT_EQ(a.visits[i].tokens_spent, b[i].tokens_spent);
  }
  EXPECT_EQ(transport.envelopes().total_hop_messages(), a.messages);
  // Both walks drew the same shuffles.
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(EnvelopeMetrics, TotalHopMessagesSumsEveryType) {
  EnvelopeMetrics metrics;
  metrics.count_hops(EnvelopeType::kTrustRequest, 3);
  metrics.count_hops(EnvelopeType::kQuery, 2);
  EXPECT_EQ(metrics.of(EnvelopeType::kTrustRequest).hop_messages, 3u);
  EXPECT_EQ(metrics.of(EnvelopeType::kQuery).hop_messages, 2u);
  EXPECT_EQ(metrics.total_hop_messages(), 5u);
  metrics.reset();
  EXPECT_EQ(metrics.total_hop_messages(), 0u);
}

TEST(EnvelopeMetrics, SummaryListsActiveTypes) {
  EnvelopeMetrics metrics;
  metrics.count_sent(EnvelopeType::kTrustRequest);
  metrics.count_delivered(EnvelopeType::kTrustRequest);
  const std::string s = metrics.summary();
  EXPECT_NE(s.find(to_string(EnvelopeType::kTrustRequest)), std::string::npos);
}

}  // namespace
}  // namespace hirep::net
