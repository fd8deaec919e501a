// Ablation — backup agent cache (§3.4.3) under agent churn.  Agents go
// offline/online between transactions; with the backup cache a peer can
// restore a returning good agent by a single probe instead of paying a
// fresh token+TTL discovery walk.  Sweeps churn rate with the cache on
// (backup_capacity=20) and off (0) and reports accuracy + refill traffic.
#include <iostream>

#include "bench_common.hpp"
#include "hirep/system.hpp"
#include "util/stats.hpp"

namespace {

struct ChurnOutcome {
  double mse = 0.0;
  double discovery_msgs_per_txn = 0.0;
};

ChurnOutcome run_with_churn(const hirep::sim::Params& params, double churn,
                            std::size_t backup_capacity) {
  using namespace hirep;
  auto opts = params.hirep_options();
  opts.backup_capacity = backup_capacity;
  core::HirepSystem system(opts);
  util::Rng churn_rng(params.seed ^ 0xc40fefeULL);

  // Track every agent node so we can toggle it.
  const auto agents = system.truth().agent_capable_nodes();
  // Maintenance traffic: discovery walks and replies, backup-cache probes
  // and key-rotation announcements.
  const auto maintenance_messages = [&system] {
    const auto& ledger = system.transport().envelopes();
    std::uint64_t sum = 0;
    for (const auto type : {net::EnvelopeType::kAgentListRequest,
                            net::EnvelopeType::kAgentListReply,
                            net::EnvelopeType::kProbe,
                            net::EnvelopeType::kKeyRotation}) {
      sum += ledger.of(type).hop_messages;
    }
    return sum;
  };
  const auto discovery_before = maintenance_messages();

  util::MseAccumulator mse;
  const std::size_t txns = params.transactions;
  for (std::size_t t = 0; t < txns; ++t) {
    // Churn step: offline agents return with probability 0.5; online ones
    // leave with the churn probability.
    for (auto a : agents) {
      if (system.agent_online(a)) {
        if (churn_rng.chance(churn)) system.set_agent_online(a, false);
      } else if (churn_rng.chance(0.5)) {
        system.set_agent_online(a, true);
      }
    }
    const auto requestor =
        static_cast<net::NodeIndex>(churn_rng.below(50));
    net::NodeIndex provider = requestor;
    while (provider == requestor) {
      provider = static_cast<net::NodeIndex>(churn_rng.below(200));
    }
    const auto rec = system.run_transaction(requestor, provider);
    if (t >= txns / 2) mse.add(rec.estimate, rec.truth_value);
  }
  const auto discovery_after = maintenance_messages();
  return {mse.mse(), static_cast<double>(discovery_after - discovery_before) /
                         static_cast<double>(txns)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hirep;
  return bench::run_exhibit(
      argc, argv,
      "Ablation — backup agent cache under churn (accuracy + maintenance "
      "traffic)",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(400);
        if (!cfg.has("transactions")) sc.transactions(300);
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& params = sc.params();
        util::Table table({"churn_rate", "mse_with_cache", "mse_no_cache",
                           "maint_msgs_with_cache", "maint_msgs_no_cache"});
        double maint_with = 0, maint_without = 0;
        for (double churn : {0.0, 0.02, 0.05, 0.10}) {
          const auto with_cache = run_with_churn(params, churn, 20);
          const auto no_cache = run_with_churn(params, churn, 0);
          if (churn == 0.10) {
            maint_with = with_cache.discovery_msgs_per_txn;
            maint_without = no_cache.discovery_msgs_per_txn;
          }
          table.add_row({churn, with_cache.mse, no_cache.mse,
                         with_cache.discovery_msgs_per_txn,
                         no_cache.discovery_msgs_per_txn});
        }
        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"backup cache reduces maintenance traffic under heavy churn",
             maint_with < maint_without,
             "with=" + std::to_string(maint_with) + " without=" +
                 std::to_string(maint_without)});
        const auto col = result.table.numeric_column("mse_with_cache");
        result.checks.push_back(
            {"accuracy stays under 0.15 MSE across all churn rates (cache on)",
             *std::max_element(col.begin(), col.end()) < 0.15, ""});
        return result;
      });
}
