// Ablation — onion length (§3.3 / Figure 8 trade-off).  More relays per
// onion buys a larger anonymity set (an observer must compromise o relays
// to link requestor and agent) at a linear cost in both per-transaction
// traffic and response time.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "sim/response_time.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace hirep;
  return bench::run_exhibit(
      argc, argv,
      "Ablation — onion relay count: anonymity vs traffic vs latency",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(500);
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& params = sc.params();
        util::Table table({"relays", "msgs_per_txn", "mean_response_ms",
                           "relay_compromise_probability"});
        std::vector<double> msgs, latency;
        for (std::size_t o : {0u, 2u, 5u, 7u, 10u}) {
          sim::Params p = params;
          p.relays_per_onion = o;
          core::HirepSystem system(p.hirep_options());
          util::RunningStats per_txn, response;
          for (int i = 0; i < 30; ++i) {
            const auto [requestor, provider] = system.random_pair();
            response.add(
                sim::hirep_query_response_ms(system, requestor, provider));
            per_txn.add(static_cast<double>(
                system.run_transaction(requestor, provider).trust_messages));
          }
          // P(an adversary owning 10% of nodes controls the WHOLE circuit).
          const double compromise = std::pow(0.1, static_cast<double>(o));
          msgs.push_back(per_txn.mean());
          latency.push_back(response.mean());
          table.add_row({static_cast<std::int64_t>(o), per_txn.mean(),
                         response.mean(), compromise});
        }
        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"traffic grows ~linearly with relay count",
             msgs.back() > 3.0 * msgs.front(), ""});
        result.checks.push_back(
            {"response time increases monotonically with relay count",
             std::is_sorted(latency.begin(), latency.end()), ""});
        return result;
      });
}
