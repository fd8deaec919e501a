// Trusted-agent discovery (paper §3.4.1–3.4.2, Figure 4).
//
// A joining peer (or one refilling its list) sends a trusted-agent-list
// request {R_al, token, TTL}: the request fans out across the overlay;
// each node that owns a trusted-agent list returns it, consuming one
// token; a node with no list but agent capability may answer with its own
// nodeId.  Propagation ends when tokens or TTL run out.  The walk is
// net::token_walk, driven by HirepSystem::discover_agents; this module
// ranks the lists it returns.
//
// Received recommendations are ranked per list — the heaviest agent in a
// list gets rank n, the next n-1, …, anything past the top n gets 0 — and
// an agent's final rank is the MAX across lists, which is what defeats
// bad-mouthing: one hostile low rank cannot cancel an honest high one
// (§4.2.1).  Ties are broken uniformly at random.
#pragma once

#include <span>
#include <vector>

#include "hirep/agent_list.hpp"
#include "util/rng.hpp"

namespace hirep::core {

/// Alternative ranking rules, for the ablation study.  The paper's rule is
/// kMaxRank; kMeanRank and kSumRank are the "obvious" alternatives that
/// §4.2.1's attack analysis implicitly rejects.
enum class RankingRule { kMaxRank, kMeanRank, kSumRank };

/// Ranks all recommended agents across `lists` and selects up to `want` of
/// them.  When one agent appears in several lists, the returned entry is
/// the one from the list that granted its decisive rank (freshest onion
/// under kMaxRank).  The lists are views of the responders' own lists:
/// ranking copies nothing, and only the selected entries are copied out.
/// Selected entries start with weight 1 (§3.4.3: initial expertise 1)
/// regardless of the recommender's claimed weight.
std::vector<AgentEntry> rank_and_select(
    std::span<const std::span<const AgentEntry>> lists, std::size_t want,
    util::Rng& rng, RankingRule rule = RankingRule::kMaxRank);

}  // namespace hirep::core
