// Ablation — agent ranking rule (§3.4.2 / §4.2.1).  The paper ranks a
// recommended agent by the MAXIMUM weight any list assigns it.  This bench
// contrasts max-rank with mean-rank and sum-rank under the two §4.2.1
// attacks: bad-mouthing a good agent and ballot-stuffing a shill.
#include <iostream>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "hirep/discovery.hpp"

namespace {

using hirep::core::AgentEntry;

hirep::crypto::NodeId id_of(std::uint8_t tag) {
  hirep::crypto::NodeId id;
  id.bytes[0] = tag;
  return id;
}

AgentEntry entry_of(std::uint8_t tag, double weight) {
  AgentEntry e;
  e.agent_id = id_of(tag);
  e.weight = weight;
  return e;
}

/// Fraction of trials in which the honest top agent (id 1) survives
/// selection against `hostile` attacker lists.
double survival_rate(hirep::core::RankingRule rule, int hostile,
                     std::uint64_t seed_base) {
  int survived = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    hirep::util::Rng rng(seed_base + static_cast<std::uint64_t>(t));
    std::vector<std::vector<AgentEntry>> lists;
    // One honest list ranks agent 1 top.
    lists.push_back({entry_of(1, 1.0), entry_of(2, 0.7), entry_of(3, 0.5)});
    // Hostile lists bad-mouth agent 1 and ballot-stuff agents 8/9.
    for (int h = 0; h < hostile; ++h) {
      lists.push_back({entry_of(8, 1.0), entry_of(9, 0.95), entry_of(1, 0.0)});
    }
    const std::vector<std::span<const AgentEntry>> views(lists.begin(),
                                                         lists.end());
    const auto selected = hirep::core::rank_and_select(views, 2, rng, rule);
    for (const auto& e : selected) {
      if (e.agent_id == id_of(1)) {
        ++survived;
        break;
      }
    }
  }
  return static_cast<double>(survived) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hirep;
  return bench::run_exhibit(
      argc, argv,
      "Ablation — ranking rule (max vs mean vs sum) under recommendation "
      "attacks",
      [](sim::Scenario&, const util::Config&) {},
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& params = sc.params();
        util::Table table({"hostile_lists", "max_rank_survival",
                           "mean_rank_survival", "sum_rank_survival"});
        double max_at_10 = 0, mean_at_10 = 0, sum_at_10 = 0;
        for (int hostile : {0, 1, 2, 5, 10, 20}) {
          const double mx = survival_rate(core::RankingRule::kMaxRank, hostile,
                                          params.seed);
          const double mn = survival_rate(core::RankingRule::kMeanRank,
                                          hostile, params.seed + 1000);
          const double sm = survival_rate(core::RankingRule::kSumRank, hostile,
                                          params.seed + 2000);
          if (hostile == 10) {
            max_at_10 = mx;
            mean_at_10 = mn;
            sum_at_10 = sm;
          }
          table.add_row({static_cast<std::int64_t>(hostile), mx, mn, sm});
        }
        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"max-rank keeps the honest agent selectable under heavy "
             "bad-mouthing (§4.2.1)",
             max_at_10 > 0.9, "survival@10=" + std::to_string(max_at_10)});
        result.checks.push_back(
            {"mean-rank and sum-rank collapse under the same attack",
             mean_at_10 < 0.2 && sum_at_10 < 0.2,
             "mean=" + std::to_string(mean_at_10) + " sum=" +
                 std::to_string(sum_at_10)});
        return result;
      });
}
