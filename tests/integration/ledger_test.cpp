// One traffic ledger: over a batch, the messages the transaction records
// claim are exactly what the transport's envelope ledger counted — for
// hiREP under every engine, delivery policy, retry setting and crypto
// mode, and for each of the five baselines.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "baselines/absolute_trust.hpp"
#include "baselines/differential_gossip.hpp"
#include "baselines/pure_voting.hpp"
#include "baselines/rca.hpp"
#include "baselines/trustme.hpp"
#include "hirep/system.hpp"

namespace hirep {
namespace {

constexpr std::size_t kNodes = 300;
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kTransactions = 200;

/// Σ record.trust_messages over one batch, and the ledger's delta over it.
struct Tally {
  std::uint64_t recorded = 0;
  std::uint64_t ledger = 0;
};

core::HirepOptions hirep_options() {
  core::HirepOptions o;
  o.nodes = kNodes;
  o.seed = kSeed;
  o.crypto = core::CryptoMode::kFast;
  return o;
}

void set_lossy(trust::WorldOptions& o) {
  o.delivery.policy = net::DeliveryPolicyKind::kFaulty;
  o.delivery.faults.drop_rate = 0.2;
}

Tally run_hirep(const core::HirepOptions& options,
                const core::Executor& exec) {
  core::HirepSystem system(options);
  std::vector<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  for (std::size_t i = 0; i < kTransactions; ++i) {
    pairs.push_back(system.random_pair());
  }
  Tally tally;
  const std::uint64_t before = system.trust_message_total();
  for (const auto& record : system.run_transactions(pairs, exec)) {
    tally.recorded += record.trust_messages;
  }
  tally.ledger = system.trust_message_total() - before;
  return tally;
}

template <typename System, typename Options>
Tally run_baseline(Options options) {
  options.nodes = kNodes;
  options.seed = kSeed;
  System system(std::move(options));
  const auto& ledger = system.transport().envelopes();
  Tally tally;
  const std::uint64_t before = ledger.total_hop_messages();
  for (std::size_t i = 0; i < kTransactions; ++i) {
    const auto [requestor, provider] = system.random_pair();
    tally.recorded += system.run_transaction(requestor, provider).trust_messages;
  }
  tally.ledger = ledger.total_hop_messages() - before;
  return tally;
}

void expect_agree(const Tally& tally) {
  EXPECT_GT(tally.recorded, 0u);
  EXPECT_EQ(tally.recorded, tally.ledger);
}

TEST(Ledger, HirepInstantSerial) {
  expect_agree(run_hirep(hirep_options(), core::Executor::serial()));
}

TEST(Ledger, HirepInstantParallel) {
  expect_agree(run_hirep(hirep_options(), core::Executor::parallel(4)));
}

TEST(Ledger, HirepLossy) {
  auto o = hirep_options();
  set_lossy(o);
  expect_agree(run_hirep(o, core::Executor::serial()));
}

TEST(Ledger, HirepLossyWithRetries) {
  auto o = hirep_options();
  set_lossy(o);
  o.reliable.max_attempts = 3;
  expect_agree(run_hirep(o, core::Executor::serial()));
}

TEST(Ledger, HirepFullCrypto) {
  auto o = hirep_options();
  o.crypto = core::CryptoMode::kFull;
  expect_agree(run_hirep(o, core::Executor::serial()));
}

TEST(Ledger, PureVoting) {
  expect_agree(run_baseline<baselines::PureVotingSystem>(
      baselines::VotingOptions{}));
}

TEST(Ledger, TrustMe) {
  expect_agree(
      run_baseline<baselines::TrustMeSystem>(baselines::TrustMeOptions{}));
}

TEST(Ledger, Rca) {
  expect_agree(run_baseline<baselines::RcaSystem>(baselines::RcaOptions{}));
}

TEST(Ledger, AbsoluteTrust) {
  expect_agree(run_baseline<baselines::AbsoluteTrustSystem>(
      baselines::AbsoluteTrustOptions{}));
}

TEST(Ledger, DifferentialGossip) {
  expect_agree(run_baseline<baselines::DifferentialGossipSystem>(
      baselines::DifferentialGossipOptions{}));
}

}  // namespace
}  // namespace hirep
