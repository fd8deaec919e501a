#include "hirep/discovery.hpp"

#include <algorithm>
#include <map>

namespace hirep::core {

std::vector<AgentEntry> rank_and_select(
    std::span<const std::span<const AgentEntry>> lists, std::size_t want,
    util::Rng& rng, RankingRule rule) {
  if (want == 0) return {};

  struct Candidate {
    double score = 0.0;
    std::size_t votes = 0;
    const AgentEntry* entry = nullptr;
    double entry_rank = -1.0;  // rank of the list that supplied `entry`
  };
  std::map<crypto::NodeId, Candidate> candidates;

  std::vector<const AgentEntry*> sorted;
  for (const auto list : lists) {
    // Rank within this list: heaviest first.
    sorted.clear();
    for (const auto& e : list) sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const AgentEntry* a, const AgentEntry* b) {
                       return a->weight > b->weight;
                     });
    for (std::size_t pos = 0; pos < sorted.size(); ++pos) {
      const double rank =
          pos < want ? static_cast<double>(want - pos) : 0.0;
      auto& cand = candidates[sorted[pos]->agent_id];
      switch (rule) {
        case RankingRule::kMaxRank:
          cand.score = std::max(cand.score, rank);
          break;
        case RankingRule::kMeanRank:
          // running mean over votes
          cand.score += (rank - cand.score) /
                        static_cast<double>(cand.votes + 1);
          break;
        case RankingRule::kSumRank:
          cand.score += rank;
          break;
      }
      ++cand.votes;
      if (rank > cand.entry_rank) {
        cand.entry = sorted[pos];
        cand.entry_rank = rank;
      }
    }
  }

  // Order by final score; ties uniformly at random.
  struct Scored {
    double score;
    std::uint64_t tiebreak;
    const Candidate* cand;
  };
  std::vector<Scored> order;
  order.reserve(candidates.size());
  for (const auto& [id, cand] : candidates) {
    if (cand.score <= 0.0) continue;  // never ranked into anyone's top-n
    order.push_back({cand.score, rng(), &cand});
  }
  std::sort(order.begin(), order.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.tiebreak < b.tiebreak;
  });

  std::vector<AgentEntry> selected;
  selected.reserve(std::min(want, order.size()));
  for (const auto& s : order) {
    if (selected.size() >= want) break;
    AgentEntry e = *s.cand->entry;
    e.weight = 1.0;  // initial expertise (§3.4.3)
    selected.push_back(std::move(e));
  }
  return selected;
}

}  // namespace hirep::core
