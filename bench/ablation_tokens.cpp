// Ablation — discovery token budget (§3.4.1).  How many trusted-agent
// lists must a joining peer collect before its selection quality
// saturates?  Sweeps the token count and reports list fill, the fraction
// of honest agents selected, and the discovery traffic paid.
#include <iostream>

#include "bench_common.hpp"
#include "hirep/system.hpp"

int main(int argc, char** argv) {
  using namespace hirep;
  return bench::run_exhibit(
      argc, argv,
      "Ablation — discovery token budget vs selection quality",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(500);
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& params = sc.params();
        util::Table table({"tokens", "avg_list_fill", "honest_fraction",
                           "discovery_msgs_per_peer"});
        std::vector<double> fills, qualities;
        for (std::uint32_t tokens : {1u, 2u, 5u, 10u, 20u}) {
          sim::Params p = params;
          p.tokens = tokens;
          core::HirepSystem system(p.hirep_options());
          double fill = 0.0, honest = 0.0, rated = 0.0;
          for (net::NodeIndex v = 0; v < system.node_count(); ++v) {
            const auto& list = system.peer(v).agents();
            fill += static_cast<double>(list.size());
            for (const auto& e : list.entries()) {
              const auto ip = system.ip_of(e.agent_id);
              honest += !system.truth().poor_evaluator(*ip);
              rated += 1.0;
            }
          }
          const auto n = static_cast<double>(system.node_count());
          const auto& ledger = system.transport().envelopes();
          const std::uint64_t discovery =
              ledger.of(net::EnvelopeType::kAgentListRequest).hop_messages +
              ledger.of(net::EnvelopeType::kAgentListReply).hop_messages;
          const double msgs = static_cast<double>(discovery) / n;
          fills.push_back(fill / n / static_cast<double>(p.trusted_agents));
          qualities.push_back(rated > 0 ? honest / rated : 0.0);
          table.add_row({static_cast<std::int64_t>(tokens), fills.back(),
                         qualities.back(), msgs});
        }
        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"list fill grows with token budget",
             fills.back() > fills.front(),
             "fill@1=" + std::to_string(fills.front()) + " fill@20=" +
                 std::to_string(fills.back())});
        result.checks.push_back(
            {"10 tokens (Table 1 default) already near saturation",
             fills[3] > 0.9 * fills.back(), ""});
        return result;
      });
}
