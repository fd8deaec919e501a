// The batched-transport determinism contract: send_batch processes
// envelopes strictly one at a time in push order, so a batch must be
// byte-identical — receipts, metrics, clock — to the same sends issued
// sequentially, under every delivery policy (Instant, Latency, Faulty,
// Chaos).  Plus the drain_groups grouping rules, the arena lifecycle of
// a batch, the payload byte counters, and the scale-engine lane-arena
// reset.
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "hirep/system.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/chaos.hpp"
#include "util/rng.hpp"

namespace hirep::net {
namespace {

constexpr std::size_t kNodes = 24;
constexpr std::size_t kTypeCount =
    static_cast<std::size_t>(EnvelopeType::kCount);

Overlay make_overlay(std::uint64_t seed = 1) {
  return Overlay(ring_lattice(kNodes, 2), LatencyParams{}, seed);
}

/// One randomly drawn send.
struct PlannedSend {
  EnvelopeType type;
  NodeIndex sender;
  std::vector<NodeIndex> path;
  util::Bytes payload;
};

/// A random schedule: 1..8 envelopes with random types, paths (length
/// 0..4, so undeliverable empty paths are covered too), and payloads.
std::vector<PlannedSend> draw_schedule(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eed5a1eULL);
  constexpr EnvelopeType kTypes[] = {
      EnvelopeType::kTrustRequest, EnvelopeType::kReport,
      EnvelopeType::kProbe, EnvelopeType::kVoteReturn};
  std::vector<PlannedSend> plan(1 + rng.below(8));
  for (auto& p : plan) {
    p.type = kTypes[rng.below(4)];
    p.sender = static_cast<NodeIndex>(rng.below(kNodes));
    p.path.resize(rng.below(5));
    for (auto& hop : p.path) hop = static_cast<NodeIndex>(rng.below(kNodes));
    p.payload.resize(rng.below(17));
    for (auto& byte : p.payload) byte = static_cast<std::uint8_t>(rng.below(256));
  }
  return plan;
}

/// Everything observable about one schedule's execution.
struct RunResult {
  std::vector<DeliveryReceipt> receipts;
  std::array<EnvelopeMetrics::Counters, kTypeCount> counters;
  double clock = 0.0;
};

RunResult snapshot(Transport& transport, std::vector<DeliveryReceipt> receipts) {
  RunResult result;
  result.receipts = std::move(receipts);
  for (std::size_t i = 0; i < kTypeCount; ++i) {
    result.counters[i] = transport.envelopes().of(static_cast<EnvelopeType>(i));
  }
  result.clock = transport.sim().now();
  return result;
}

RunResult run_sequential(Transport& transport,
                         const std::vector<PlannedSend>& plan) {
  std::vector<DeliveryReceipt> receipts;
  for (const auto& p : plan) {
    receipts.push_back(transport.send(p.type, p.sender, p.path, p.payload));
  }
  return snapshot(transport, std::move(receipts));
}

RunResult run_batched(Transport& transport,
                      const std::vector<PlannedSend>& plan) {
  EnvelopeBatch batch = transport.make_batch();
  for (const auto& p : plan) batch.push(p.type, p.sender, p.path, p.payload);
  const auto receipts = transport.send_batch(batch);
  return snapshot(transport,
                  std::vector<DeliveryReceipt>(receipts.begin(), receipts.end()));
}

/// Byte-level equality: doubles compared by bit pattern so any drift a
/// tolerance would mask fails loudly.
void expect_identical(const RunResult& seq, const RunResult& bat) {
  ASSERT_EQ(seq.receipts.size(), bat.receipts.size());
  for (std::size_t i = 0; i < seq.receipts.size(); ++i) {
    SCOPED_TRACE("receipt " + std::to_string(i));
    const auto& a = seq.receipts[i];
    const auto& b = bat.receipts[i];
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.destination, b.destination);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.start_ms),
              std::bit_cast<std::uint64_t>(b.start_ms));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.completion_ms),
              std::bit_cast<std::uint64_t>(b.completion_ms));
    EXPECT_EQ(a.payload, b.payload);
  }
  for (std::size_t i = 0; i < kTypeCount; ++i) {
    SCOPED_TRACE(std::string("type ") +
                 to_string(static_cast<EnvelopeType>(i)));
    const auto& a = seq.counters[i];
    const auto& b = bat.counters[i];
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.hop_messages, b.hop_messages);
    EXPECT_EQ(a.suppressed, b.suppressed);
    EXPECT_EQ(a.payload_bytes_sent, b.payload_bytes_sent);
    EXPECT_EQ(a.payload_bytes_delivered, b.payload_bytes_delivered);
    EXPECT_EQ(a.payload_bytes_dropped, b.payload_bytes_dropped);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.clock),
            std::bit_cast<std::uint64_t>(bat.clock));
}

void run_config_property(const DeliveryConfig& config, std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    const auto plan = draw_schedule(seed);
    Overlay seq_overlay = make_overlay();
    Transport seq_transport(&seq_overlay, config, seed);
    Overlay bat_overlay = make_overlay();
    Transport bat_transport(&bat_overlay, config, seed);
    expect_identical(run_sequential(seq_transport, plan),
                     run_batched(bat_transport, plan));
  }
}

TEST(TransportBatchProperty, InstantBatchMatchesSequential) {
  run_config_property(DeliveryConfig{}, 40);
}

TEST(TransportBatchProperty, LatencyBatchMatchesSequential) {
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kLatency;
  run_config_property(config, 40);
}

TEST(TransportBatchProperty, FaultyZeroDelayBatchMatchesSequential) {
  // Pure tight-loop path with drops and same-tick duplicates.
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 0.25;
  config.faults.duplicate_rate = 0.2;
  run_config_property(config, 40);
}

TEST(TransportBatchProperty, FaultyDelayedBatchMatchesSequential) {
  // Mixed tight-loop / event-driven path: positive random hop delays force
  // the fallback from the first delayed hop.
  DeliveryConfig config;
  config.policy = DeliveryPolicyKind::kFaulty;
  config.faults.drop_rate = 0.2;
  config.faults.duplicate_rate = 0.15;
  config.faults.delay_max_ms = 0.6;
  run_config_property(config, 40);
}

TEST(TransportBatchProperty, ChaosBatchMatchesSequential) {
  // ChaosDelivery over a faulty inner policy, with an active partition,
  // an open burst window, and slowdown delays.  Two engines with the same
  // seed and no crash schedule (crashes would mutate shared system state)
  // evolve identically, so sequential-vs-batch is a fair comparison.
  core::HirepOptions opts;
  opts.nodes = kNodes;
  opts.crypto = core::CryptoMode::kFast;
  opts.seed = 5;
  core::HirepSystem system(opts);

  sim::ChaosParams chaos;
  chaos.seed = 77;
  chaos.partition_at = 1;
  chaos.partition_fraction = 0.4;
  chaos.burst_at = 1;
  chaos.burst_drop = 0.25;
  chaos.slowdown_fraction = 0.3;
  chaos.slowdown_ms = 0.5;

  FaultParams faults;
  faults.drop_rate = 0.15;
  faults.duplicate_rate = 0.1;

  const auto run = [&](std::uint64_t seed, bool batched) {
    Overlay overlay = make_overlay();
    auto engine = std::make_shared<sim::ChaosEngine>(&system, chaos, 1);
    engine->advance_to(2);
    Transport transport(
        &overlay, std::make_unique<sim::ChaosDelivery>(
                      std::make_unique<FaultyDelivery>(faults, seed), engine));
    const auto plan = draw_schedule(seed);
    return batched ? run_batched(transport, plan)
                   : run_sequential(transport, plan);
  };
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    expect_identical(run(seed, false), run(seed, true));
  }
}

TEST(EnvelopeBatch, DrainGroupsPartitionsByKeyStableWithinGroup) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  EnvelopeBatch batch = transport.make_batch();
  // Destinations: 5, 2, (undelivered), 5, 1, 2.
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{5});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{2});
  batch.push(EnvelopeType::kProbe, 0, {});  // empty path: never delivered
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{3, 5});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{1});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{2});
  transport.send_batch(batch);

  std::vector<std::uint64_t> keys;
  std::vector<std::vector<std::uint32_t>> groups;
  batch.drain_groups(
      [](std::size_t, const DeliveryReceipt& r) {
        return static_cast<std::uint64_t>(r.destination);
      },
      [&](const ReceiptGroup& g) {
        keys.push_back(g.key);
        groups.emplace_back(g.entries.begin(), g.entries.end());
      });
  // One group per delivered destination, ascending; entry order within a
  // group follows push order (stable).
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 5}));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(groups[1], (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(groups[2], (std::vector<std::uint32_t>{0, 3}));
}

TEST(EnvelopeBatch, DrainGroupsSupportsArbitraryKeys) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  EnvelopeBatch batch = transport.make_batch();
  for (NodeIndex dest : {5, 2, 7, 1, 4}) {
    batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{dest});
  }
  transport.send_batch(batch);

  // Key by destination parity: any function of the receipt is a key.
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> sizes;
  batch.drain_groups(
      [](std::size_t, const DeliveryReceipt& r) {
        return static_cast<std::uint64_t>(r.destination % 2);
      },
      [&](const ReceiptGroup& g) {
        keys.push_back(g.key);
        sizes.push_back(g.entries.size());
      });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 3}));
}

TEST(EnvelopeBatch, DrainGroupsByDestinationFlattensToSortedOrder) {
  // Grouping by destination visits groups in ascending key order and
  // preserves push order within each group.
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  EnvelopeBatch batch = transport.make_batch();
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{5});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{2});
  batch.push(EnvelopeType::kProbe, 0, {});  // empty path: never delivered
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{3, 5});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{1});
  batch.push(EnvelopeType::kProbe, 0, std::vector<NodeIndex>{2});
  transport.send_batch(batch);

  std::vector<std::size_t> order;
  std::vector<NodeIndex> destinations;
  batch.drain_groups(
      [](std::size_t, const DeliveryReceipt& r) {
        return static_cast<std::uint64_t>(r.destination);
      },
      [&](const ReceiptGroup& g) {
        for (const std::uint32_t i : g.entries) {
          order.push_back(i);
          destinations.push_back(batch.receipt(i).destination);
        }
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 1, 5, 0, 3}));
  EXPECT_EQ(destinations, (std::vector<NodeIndex>{1, 2, 2, 5, 5}));
}

TEST(EnvelopeBatch, SendReleasesArenaBytesAndReceiptsKeepTheirCopies) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  const auto base = transport.arena().bytes_in_use();
  EnvelopeBatch batch = transport.make_batch();
  const util::Bytes payload{1, 2, 3, 4, 5};
  batch.push(EnvelopeType::kReport, 0, std::vector<NodeIndex>{1, 2}, payload);
  EXPECT_GT(transport.arena().bytes_in_use(), base);  // interned
  transport.send_batch(batch);
  // The batch leaves the arena exactly where it found it…
  EXPECT_EQ(transport.arena().bytes_in_use(), base);
  // …and the delivered payload survives in the receipt's own storage.
  ASSERT_TRUE(batch.receipt(0).delivered);
  EXPECT_EQ(batch.receipt(0).payload, payload);
}

TEST(EnvelopeBatch, ClearReleasesAnUnsentBatch) {
  Overlay overlay = make_overlay();
  Transport transport(&overlay, DeliveryConfig{}, 1);
  const auto base = transport.arena().bytes_in_use();
  EnvelopeBatch batch = transport.make_batch();
  batch.push(EnvelopeType::kReport, 0, std::vector<NodeIndex>{1},
             util::Bytes(100, 0x11));
  EXPECT_GT(transport.arena().bytes_in_use(), base);
  batch.clear();
  EXPECT_EQ(transport.arena().bytes_in_use(), base);
  EXPECT_TRUE(batch.empty());
}

TEST(EnvelopeMetrics, PayloadByteCountersFollowDeliveryOutcomes) {
  Overlay overlay = make_overlay();
  {
    Transport transport(&overlay, DeliveryConfig{}, 1);
    transport.send(EnvelopeType::kReport, 0, {1, 2}, util::Bytes(7, 0xAB));
    const auto& c = transport.envelopes().of(EnvelopeType::kReport);
    EXPECT_EQ(c.payload_bytes_sent, 7u);
    EXPECT_EQ(c.payload_bytes_delivered, 7u);
    EXPECT_EQ(c.payload_bytes_dropped, 0u);
  }
  {
    DeliveryConfig config;
    config.policy = DeliveryPolicyKind::kFaulty;
    config.faults.drop_rate = 1.0;
    Transport transport(&overlay, config, 1);
    transport.send(EnvelopeType::kReport, 0, {1}, util::Bytes(9, 0xCD));
    const auto& c = transport.envelopes().of(EnvelopeType::kReport);
    EXPECT_EQ(c.payload_bytes_sent, 9u);
    EXPECT_EQ(c.payload_bytes_delivered, 0u);
    EXPECT_EQ(c.payload_bytes_dropped, 9u);
  }
}

TEST(ScaleLanes, ParallelLaneAbsorptionMatchesSerialAndResetsLaneArenas) {
  // The lane-absorption identity under the batched pipeline: parallel
  // waves over per-lane transports must reproduce the serial run record
  // for record, and every lane arena is reset at the wave barrier.
  core::HirepOptions opts;
  opts.nodes = 200;
  opts.crypto = core::CryptoMode::kFast;
  opts.seed = 13;
  util::Rng rng(0xfeedULL);
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  while (pairs.size() < 60) {
    const auto r = static_cast<net::NodeIndex>(rng.below(opts.nodes));
    const auto p = static_cast<net::NodeIndex>(rng.below(opts.nodes));
    if (r != p) pairs.emplace_back(r, p);
  }

  core::HirepSystem serial(opts);
  core::HirepSystem parallel(opts);
  const auto serial_records =
      serial.run_transactions(pairs, core::Executor::serial());
  std::uint64_t resets_before = 0;
  if constexpr (obs::kEnabled) {
    resets_before = obs::Registry::global().counter("net.arena.resets").value();
  }
  const auto parallel_records =
      parallel.run_transactions(pairs, core::Executor::parallel(2));
  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::Registry::global().counter("net.arena.resets").value(),
              resets_before);
  }

  ASSERT_EQ(serial_records.size(), parallel_records.size());
  for (std::size_t i = 0; i < serial_records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(serial_records[i].requestor, parallel_records[i].requestor);
    EXPECT_EQ(serial_records[i].provider, parallel_records[i].provider);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_records[i].estimate),
              std::bit_cast<std::uint64_t>(parallel_records[i].estimate));
    EXPECT_EQ(serial_records[i].trust_messages,
              parallel_records[i].trust_messages);
  }
  EXPECT_EQ(serial.trust_message_total(), parallel.trust_message_total());
}

}  // namespace
}  // namespace hirep::net
