#include "hirep/discovery.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>

#include "crypto/sha256.hpp"
#include "hirep/system.hpp"
#include "util/bytes.hpp"

namespace hirep::core {
namespace {

crypto::NodeId id_of(std::uint8_t tag) {
  crypto::NodeId id;
  id.bytes[0] = tag;
  return id;
}

AgentEntry entry_of(std::uint8_t tag, double weight) {
  AgentEntry e;
  e.agent_id = id_of(tag);
  e.weight = weight;
  return e;
}

// rank_and_select over views of `lists`.
std::vector<AgentEntry> rank_lists(
    const std::vector<std::vector<AgentEntry>>& lists, std::size_t want,
    util::Rng& rng, RankingRule rule = RankingRule::kMaxRank) {
  const std::vector<std::span<const AgentEntry>> views(lists.begin(),
                                                       lists.end());
  return rank_and_select(views, want, rng, rule);
}

TEST(RankAndSelect, EmptyInput) {
  util::Rng rng(1);
  EXPECT_TRUE(rank_and_select({}, 5, rng).empty());
  EXPECT_TRUE(rank_lists({{entry_of(1, 1.0)}}, 0, rng).empty());
}

TEST(RankAndSelect, TopWeightsWin) {
  util::Rng rng(2);
  std::vector<std::vector<AgentEntry>> lists{
      {entry_of(1, 0.9), entry_of(2, 0.5), entry_of(3, 0.1)}};
  const auto selected = rank_lists(lists, 2, rng);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].agent_id, id_of(1));
  EXPECT_EQ(selected[1].agent_id, id_of(2));
}

TEST(RankAndSelect, SelectedWeightResetToOne) {
  util::Rng rng(3);
  std::vector<std::vector<AgentEntry>> lists{{entry_of(1, 0.42)}};
  const auto selected = rank_lists(lists, 1, rng);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_DOUBLE_EQ(selected[0].weight, 1.0);  // §3.4.3 initial expertise
}

TEST(RankAndSelect, MaxRankDefeatsBadMouthing) {
  // Agent 1 is top-ranked by one honest list; ten hostile lists rank it
  // at the bottom.  Max-rank keeps the honest rank, so agent 1 must still
  // be selected (§4.2.1: "the bad recommendation given by attackers will
  // be ignored").
  util::Rng rng(4);
  std::vector<std::vector<AgentEntry>> lists;
  lists.push_back({entry_of(1, 1.0), entry_of(2, 0.8)});
  for (int i = 0; i < 10; ++i) {
    lists.push_back({entry_of(3, 1.0), entry_of(4, 0.9), entry_of(1, 0.0)});
  }
  const auto selected = rank_lists(lists, 2, rng, RankingRule::kMaxRank);
  bool has_agent1 = false;
  for (const auto& e : selected) has_agent1 |= (e.agent_id == id_of(1));
  EXPECT_TRUE(has_agent1);
}

TEST(RankAndSelect, MeanRankVulnerableToBadMouthing) {
  // The same scenario under mean-rank: the hostile lists drag agent 1's
  // average down and it loses its slot — the ablation contrast.
  util::Rng rng(5);
  std::vector<std::vector<AgentEntry>> lists;
  lists.push_back({entry_of(1, 1.0), entry_of(2, 0.8)});
  for (int i = 0; i < 10; ++i) {
    lists.push_back({entry_of(3, 1.0), entry_of(4, 0.9), entry_of(1, 0.0)});
  }
  const auto selected = rank_lists(lists, 2, rng, RankingRule::kMeanRank);
  bool has_agent1 = false;
  for (const auto& e : selected) has_agent1 |= (e.agent_id == id_of(1));
  EXPECT_FALSE(has_agent1);
}

TEST(RankAndSelect, BallotStuffingNoBetterThanOneVote) {
  // Multiple max-weight recommendations for the same agent have the same
  // effect as a single one under max-rank (§4.2.1).
  util::Rng rng(6);
  std::vector<std::vector<AgentEntry>> once{{entry_of(1, 1.0)}};
  std::vector<std::vector<AgentEntry>> stuffed(20, {entry_of(1, 1.0)});
  const auto a = rank_lists(once, 3, rng);
  const auto b = rank_lists(stuffed, 3, rng);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].agent_id, b[0].agent_id);
}

TEST(RankAndSelect, SumRankRewardsBallotStuffing) {
  // Contrast: sum-rank lets 5 hostile duplicate lists outrank an honest
  // top recommendation.
  util::Rng rng(7);
  std::vector<std::vector<AgentEntry>> lists;
  lists.push_back({entry_of(1, 1.0), entry_of(2, 0.1)});
  for (int i = 0; i < 5; ++i) lists.push_back({entry_of(2, 1.0)});
  const auto selected = rank_lists(lists, 1, rng, RankingRule::kSumRank);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].agent_id, id_of(2));
}

TEST(RankAndSelect, AgentsBeyondTopNGetRankZero) {
  // A list longer than `want`: entries past position `want` contribute
  // rank 0 and are never selected over ranked ones.
  util::Rng rng(8);
  std::vector<std::vector<AgentEntry>> lists{
      {entry_of(1, 0.9), entry_of(2, 0.8), entry_of(3, 0.7), entry_of(4, 0.6)}};
  const auto selected = rank_lists(lists, 2, rng);
  ASSERT_EQ(selected.size(), 2u);
  for (const auto& e : selected) {
    EXPECT_TRUE(e.agent_id == id_of(1) || e.agent_id == id_of(2));
  }
}

TEST(RankAndSelect, TieBreaksAreRandom) {
  // Four equally ranked agents, pick one: over many trials each should be
  // chosen sometimes.
  std::map<std::uint8_t, int> wins;
  for (int trial = 0; trial < 200; ++trial) {
    util::Rng rng(static_cast<std::uint64_t>(trial) + 100);
    std::vector<std::vector<AgentEntry>> lists{{entry_of(1, 0.5)},
                                               {entry_of(2, 0.5)},
                                               {entry_of(3, 0.5)},
                                               {entry_of(4, 0.5)}};
    const auto selected = rank_lists(lists, 1, rng);
    ASSERT_EQ(selected.size(), 1u);
    ++wins[selected[0].agent_id.bytes[0]];
  }
  EXPECT_EQ(wins.size(), 4u);
  for (const auto& [tag, count] : wins) EXPECT_GT(count, 10) << int(tag);
}

// Every peer's trusted list after bootstrap (agent id, weight, onion sq,
// relay path), digested.  The pins were captured before discovery ranked
// views instead of copies; they also see the onion the walk's answer test
// issues and drops for a list-less agent, whose only trace under fast
// crypto is the sqs of later onions.
std::string bootstrap_lists_digest(CryptoMode mode) {
  HirepOptions o;
  o.nodes = 300;
  o.rsa_bits = 64;
  o.seed = 5;
  o.crypto = mode;
  const HirepSystem sys(o);
  util::ByteWriter w;
  for (net::NodeIndex v = 0; v < sys.node_count(); ++v) {
    const auto& entries = sys.peer(v).agents().entries();
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const AgentEntry& e : entries) {
      w.raw(e.agent_id.bytes);
      w.f64(e.weight);
      w.u64(e.onion.sq);
      w.u32(static_cast<std::uint32_t>(e.relay_path.size()));
      for (net::NodeIndex hop : e.relay_path) w.u32(hop);
    }
  }
  return util::to_hex(crypto::Sha256::hash(w.bytes()));
}

TEST(DiscoveryPin, FastCryptoTrustedListsMatchPinnedDigest) {
  EXPECT_EQ(bootstrap_lists_digest(CryptoMode::kFast), 
            "63e2746fc4477f04f4859e6b0498567c1944f1f7be1279f1fe8d36864877e80e");
}

TEST(DiscoveryPin, FullCryptoTrustedListsMatchPinnedDigest) {
  EXPECT_EQ(bootstrap_lists_digest(CryptoMode::kFull), 
            "6405e38537d31d89d462dc89e92b0e9f950851126cbaafd6d374fe44132e88e2");
}

}  // namespace
}  // namespace hirep::core
