// Property tests for the batched transaction engine: parallel execution
// must be byte-identical to serial execution (DESIGN.md §9) — records,
// message totals, envelope counters, and protocol-level obs counters —
// batches must compose, and invalid inputs must be rejected up front.
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hirep/system.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hirep {
namespace {

using core::Executor;
using core::HirepOptions;
using core::HirepSystem;
using Record = core::HirepSystem::TransactionRecord;
using Pair = std::pair<net::NodeIndex, net::NodeIndex>;

HirepOptions fast_options(std::uint64_t seed, std::size_t nodes) {
  HirepOptions opts;
  opts.nodes = nodes;
  opts.crypto = core::CryptoMode::kFast;
  opts.seed = seed;
  return opts;
}

std::vector<Pair> draw_pairs(std::uint64_t seed, std::size_t nodes,
                             std::size_t count) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto r = static_cast<net::NodeIndex>(rng.below(nodes));
    const auto p = static_cast<net::NodeIndex>(rng.below(nodes));
    if (r != p) pairs.emplace_back(r, p);
  }
  return pairs;
}

// Byte-level equality: doubles are compared by bit pattern, so the test
// fails on any drift a tolerance-based comparison would mask.
void expect_records_identical(const std::vector<Record>& a,
                              const std::vector<Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].requestor, b[i].requestor);
    EXPECT_EQ(a[i].provider, b[i].provider);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].estimate),
              std::bit_cast<std::uint64_t>(b[i].estimate));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].truth_value),
              std::bit_cast<std::uint64_t>(b[i].truth_value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].outcome),
              std::bit_cast<std::uint64_t>(b[i].outcome));
    EXPECT_EQ(a[i].responses, b[i].responses);
    EXPECT_EQ(a[i].trust_messages, b[i].trust_messages);
  }
}

/// Everything one engine run leaves behind that the determinism contract
/// covers: the record stream, message totals, per-type envelope counters,
/// and the protocol-level (hirep.*) obs counters.
struct RunTrace {
  std::vector<Record> records;
  std::uint64_t trust_messages = 0;
  std::vector<net::EnvelopeMetrics::Counters> envelopes;
  std::vector<obs::Snapshot::CounterEntry> protocol_counters;
};

RunTrace run_trace(const HirepOptions& opts, std::span<const Pair> pairs,
                   const Executor& exec) {
  if constexpr (obs::kEnabled) obs::Registry::global().reset();
  HirepSystem system(opts);
  RunTrace trace;
  trace.records = system.run_transactions(pairs, exec);
  trace.trust_messages = system.trust_message_total();
  const auto count = static_cast<std::size_t>(net::EnvelopeType::kCount);
  for (std::size_t t = 0; t < count; ++t) {
    trace.envelopes.push_back(
        system.transport().envelopes().of(static_cast<net::EnvelopeType>(t)));
  }
  if constexpr (obs::kEnabled) {
    for (auto& entry : obs::Registry::global().snapshot().counters) {
      if (entry.name.rfind("hirep.", 0) != 0) continue;
      trace.protocol_counters.push_back(std::move(entry));
    }
  }
  return trace;
}

void expect_traces_identical(const RunTrace& serial, const RunTrace& other) {
  expect_records_identical(serial.records, other.records);
  EXPECT_EQ(serial.trust_messages, other.trust_messages);
  ASSERT_EQ(serial.envelopes.size(), other.envelopes.size());
  for (std::size_t t = 0; t < serial.envelopes.size(); ++t) {
    SCOPED_TRACE("envelope type " + std::to_string(t));
    const auto& a = serial.envelopes[t];
    const auto& b = other.envelopes[t];
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.hop_messages, b.hop_messages);
    EXPECT_EQ(a.payload_bytes_sent, b.payload_bytes_sent);
    EXPECT_EQ(a.payload_bytes_delivered, b.payload_bytes_delivered);
  }
  ASSERT_EQ(serial.protocol_counters.size(), other.protocol_counters.size());
  for (std::size_t i = 0; i < serial.protocol_counters.size(); ++i) {
    EXPECT_EQ(serial.protocol_counters[i].name,
              other.protocol_counters[i].name);
    EXPECT_EQ(serial.protocol_counters[i].value,
              other.protocol_counters[i].value)
        << serial.protocol_counters[i].name;
  }
}

TEST(ScaleEngine, ParallelTraceMatchesSerialAcrossSeeds) {
  // The pinned golden property: for 20 seeds and 2 or 4 workers, the
  // parallel engine reproduces the serial reference's full trace to the
  // bit, not just its records.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto opts = fast_options(seed, 96);
    const auto pairs = draw_pairs(seed, opts.nodes, 48);
    const auto serial = run_trace(opts, pairs, Executor::serial());
    for (std::size_t threads : {2UL, 4UL}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      expect_traces_identical(
          serial, run_trace(opts, pairs, Executor::parallel(threads)));
    }
  }
}

TEST(ScaleEngine, EqualWaveWindowsCompareAcrossEngines) {
  // The wave window moves barriers (hence deferred-maintenance timing), so
  // the byte-identity contract is per-window: serial and parallel agree
  // whenever their windows agree.
  const auto opts = fast_options(31, 96);
  const auto pairs = draw_pairs(31, opts.nodes, 64);
  for (std::size_t window : {1UL, 5UL, 16UL}) {
    SCOPED_TRACE("wave_window " + std::to_string(window));
    Executor serial = Executor::serial();
    serial.wave_window = window;
    Executor parallel = Executor::parallel(4);
    parallel.wave_window = window;
    expect_traces_identical(run_trace(opts, pairs, serial),
                            run_trace(opts, pairs, parallel));
  }
}

TEST(ScaleEngine, ParallelMatchesSerialFastCrypto) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    for (std::size_t threads : {2UL, 4UL}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      const auto opts = fast_options(seed, 200);
      const auto pairs = draw_pairs(seed, opts.nodes, 80);

      HirepSystem serial(opts);
      HirepSystem parallel(opts);
      const auto serial_records =
          serial.run_transactions(pairs, Executor::serial());
      const auto parallel_records = parallel.run_transactions(
          pairs, Executor::parallel(threads));

      expect_records_identical(serial_records, parallel_records);
      EXPECT_EQ(serial.trust_message_total(), parallel.trust_message_total());
    }
  }
}

TEST(ScaleEngine, ParallelMatchesSerialFullCrypto) {
  const HirepOptions opts = [] {
    HirepOptions o;
    o.nodes = 48;
    o.crypto = core::CryptoMode::kFull;
    o.seed = 3;
    return o;
  }();
  const auto pairs = draw_pairs(3, opts.nodes, 8);

  HirepSystem serial(opts);
  HirepSystem parallel(opts);
  const auto serial_records =
      serial.run_transactions(pairs, Executor::serial());
  const auto parallel_records =
      parallel.run_transactions(pairs, Executor::parallel(4));

  expect_records_identical(serial_records, parallel_records);
  EXPECT_EQ(serial.trust_message_total(), parallel.trust_message_total());
}

TEST(ScaleEngine, ChunkedBatchesMatchOneBatch) {
  const auto opts = fast_options(11, 200);
  const auto pairs = draw_pairs(11, opts.nodes, 60);

  HirepSystem whole(opts);
  HirepSystem chunked(opts);
  const auto whole_records = whole.run_transactions(pairs, Executor::parallel(4));

  std::vector<Record> chunk_records;
  for (std::size_t at = 0; at < pairs.size(); at += 25) {
    const std::size_t n = std::min<std::size_t>(25, pairs.size() - at);
    const auto part = chunked.run_transactions(
        std::span(pairs).subspan(at, n), Executor::parallel(4));
    chunk_records.insert(chunk_records.end(), part.begin(), part.end());
  }

  // The lifetime transaction counter carries the stream index across
  // batches, so checkpointed execution (fig5/fig6 style) is equivalent to
  // one big batch.
  expect_records_identical(whole_records, chunk_records);
  EXPECT_EQ(whole.trust_message_total(), chunked.trust_message_total());
}

TEST(ScaleEngine, SharedAgentsAcrossDistinctPairsStayConsistent) {
  // Tiny network: every peer trusts mostly the same agents, so waves
  // exercise the shared-agent locking path heavily.
  const auto opts = fast_options(5, 32);
  const auto pairs = draw_pairs(5, opts.nodes, 64);

  HirepSystem serial(opts);
  HirepSystem parallel(opts);
  expect_records_identical(
      serial.run_transactions(pairs, Executor::serial()),
      parallel.run_transactions(pairs, Executor::parallel(4)));
}

TEST(ScaleEngine, ParallelRequiresInstantDelivery) {
  auto opts = fast_options(1, 64);
  opts.delivery.policy = net::DeliveryPolicyKind::kFaulty;
  HirepSystem system(opts);
  const std::vector<Pair> pairs = {{0, 1}};
  EXPECT_THROW(system.run_transactions(pairs, Executor::parallel()),
               std::invalid_argument);
  // Serial batched execution over a faulty transport is still legal.
  EXPECT_NO_THROW(system.run_transactions(pairs, Executor::serial()));
}

TEST(ScaleEngine, RejectsInvalidPairs) {
  HirepSystem system(fast_options(1, 64));
  const std::vector<Pair> self = {{3, 3}};
  EXPECT_THROW(system.run_transactions(self, {}), std::invalid_argument);
  const std::vector<Pair> oob = {{0, 64}};
  EXPECT_THROW(system.run_transactions(oob, {}), std::invalid_argument);
}

TEST(ScaleEngine, SerialEngineAdvancesSystemLikeLegacyLoop) {
  // The engine must leave the system in a usable state: records are sane
  // and the legacy single-transaction API still works afterwards.
  HirepSystem system(fast_options(9, 100));
  const auto pairs = draw_pairs(9, 100, 20);
  const auto records = system.run_transactions(pairs, Executor::parallel(2));
  ASSERT_EQ(records.size(), pairs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].requestor, pairs[i].first);
    EXPECT_EQ(records[i].provider, pairs[i].second);
    EXPECT_GE(records[i].estimate, 0.0);
    EXPECT_LE(records[i].estimate, 1.0);
  }
  const auto after = system.run_transaction();
  EXPECT_NE(after.requestor, after.provider);
}

}  // namespace
}  // namespace hirep
