// Beyond the paper's figures: six reputation architectures side by side —
// hiREP (hierarchical), pure voting (fully distributed polling,
// P2PREP-style), TrustMe-style (random THAs + double broadcast), a
// centralized RCA (Gupta et al.), Absolute Trust (weighted global fixed
// point, arXiv:1601.01419), and differential gossip (push-sum mass,
// arXiv:1210.4301) — on the same world parameters.
//
// Columns: trust messages per transaction, measured MSE after the same
// training budget, and what happens when the architecture's critical
// node(s) fail.
#include <stdexcept>
#include <utility>

#include "baselines/absolute_trust.hpp"
#include "baselines/differential_gossip.hpp"
#include "baselines/rca.hpp"
#include "bench_common.hpp"
#include "sim/attacks.hpp"
#include "util/stats.hpp"

namespace {

using namespace hirep;

using Pair = std::pair<net::NodeIndex, net::NodeIndex>;

struct Row {
  double msgs_per_txn = 0.0;
  double mse = 0.0;
  std::string failure_note;
};

constexpr std::size_t kTrain = 400;
constexpr std::size_t kMeasure = 100;
/// The pair rules below address peers below this index.
constexpr std::size_t kMinNodes = 200;

/// Runs `train` unmeasured transactions, then kMeasure measured ones;
/// transaction t runs between the peers `pair(t)` returns.
template <typename System, typename PairFn>
Row measure(System& system, std::size_t train, PairFn pair) {
  util::MseAccumulator mse;
  std::uint64_t msgs = 0;
  for (std::size_t t = 0; t < train + kMeasure; ++t) {
    const auto [requestor, provider] = pair(t);
    const auto rec = system.run_transaction(requestor, provider);
    if (t >= train) {
      mse.add(rec.estimate, rec.truth_value);
      msgs += rec.trust_messages;
    }
  }
  Row row;
  row.msgs_per_txn = static_cast<double>(msgs) / static_cast<double>(kMeasure);
  row.mse = mse.mse();
  return row;
}

/// Random draws from concentrated pools — requestors below 50, providers
/// 50..149 — so every provider accumulates raters beyond a single fixed
/// requestor (a lone malicious rater would otherwise own its score).
Pair pooled_pair(util::Rng& rng) {
  const auto requestor = static_cast<net::NodeIndex>(rng.below(50));
  const auto provider = static_cast<net::NodeIndex>(50 + rng.below(100));
  return {requestor, provider};
}

Row run_hirep(const sim::Params& params) {
  core::HirepSystem system(params.hirep_options());
  Row row = measure(system, kTrain, [&](std::size_t) {
    const auto requestor = static_cast<net::NodeIndex>(system.rng().below(50));
    net::NodeIndex provider = requestor;
    while (provider == requestor) {
      provider = static_cast<net::NodeIndex>(system.rng().below(200));
    }
    return Pair{requestor, provider};
  });
  // Resilience probe: kill the 5 most popular agents, keep transacting.
  sim::dos_top_agents(system, 5);
  std::size_t responses = 0;
  for (int i = 0; i < 30; ++i) responses += system.run_transaction().responses;
  row.failure_note = responses > 0 ? "degrades gracefully, self-heals"
                                   : "STALLED";
  return row;
}

Row run_voting(const sim::Params& params) {
  baselines::PureVotingSystem system(params.voting_options());
  // Stateless: no training.
  Row row =
      measure(system, 0, [&](std::size_t) { return system.random_pair(); });
  row.failure_note = "no critical node, but floods everyone";
  return row;
}

Row run_trustme(const sim::Params& params) {
  baselines::TrustMeSystem system(params.trustme_options());
  // Concentrated provider pool so THAs accumulate reports.
  Row row = measure(system, kTrain, [](std::size_t t) {
    return Pair{static_cast<net::NodeIndex>(t % 50),
                static_cast<net::NodeIndex>(50 + t % 100)};
  });
  row.failure_note = "broadcasts twice per transaction";
  return row;
}

Row run_rca(const sim::Params& params) {
  baselines::RcaSystem system(baselines::RcaOptions{params.world_options()});
  Row row = measure(system, kTrain, [](std::size_t t) {
    return Pair{static_cast<net::NodeIndex>(1 + t % 50),
                static_cast<net::NodeIndex>(51 + t % 100)};
  });
  system.set_rca_online(false);
  const bool answered = system.run_transaction().responses > 0;
  row.failure_note = answered ? "?" : "single point of failure: blind";
  return row;
}

Row run_absolute_trust(const sim::Params& params) {
  baselines::AbsoluteTrustSystem system(
      baselines::AbsoluteTrustOptions{params.world_options()});
  Row row = measure(system, kTrain,
                    [&](std::size_t) { return pooled_pair(system.rng()); });
  row.failure_note = "identity-keyed: whitewash wipes standing";
  return row;
}

Row run_differential_gossip(const sim::Params& params) {
  baselines::DifferentialGossipSystem system(
      baselines::DifferentialGossipOptions{params.world_options()});
  Row row = measure(system, kTrain,
                    [&](std::size_t) { return pooled_pair(system.rng()); });
  row.failure_note = "anonymous mass: lost pushes lose opinions";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_exhibit(
      argc, argv,
      "Comparison — hiREP vs pure voting, TrustMe-style, centralized RCA, "
      "Absolute Trust, and differential gossip (same world, 10% attackers)",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(400);
        if (sc.params().network_size < kMinNodes) {
          throw std::invalid_argument(
              "network_size must be >= 200 (the comparison's pair rules "
              "address peers up to index 199)");
        }
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& params = sc.params();
        const Row hirep = run_hirep(params);
        const Row voting = run_voting(params);
        const Row trustme = run_trustme(params);
        const Row rca = run_rca(params);
        const Row abs_trust = run_absolute_trust(params);
        const Row gossip = run_differential_gossip(params);

        util::Table table({"system", "trust_msgs_per_txn", "mse",
                           "failure behaviour"});
        table.add_row({std::string("hiREP (hierarchical)"), hirep.msgs_per_txn,
                       hirep.mse, hirep.failure_note});
        table.add_row({std::string("pure voting (distributed)"),
                       voting.msgs_per_txn, voting.mse, voting.failure_note});
        table.add_row({std::string("TrustMe-style (random THAs)"),
                       trustme.msgs_per_txn, trustme.mse, trustme.failure_note});
        table.add_row({std::string("centralized RCA"), rca.msgs_per_txn,
                       rca.mse, rca.failure_note});
        table.add_row({std::string("Absolute Trust (global fixed point)"),
                       abs_trust.msgs_per_txn, abs_trust.mse,
                       abs_trust.failure_note});
        table.add_row({std::string("differential gossip (push-sum)"),
                       gossip.msgs_per_txn, gossip.mse, gossip.failure_note});

        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"hiREP is cheaper than both flooding architectures",
             hirep.msgs_per_txn < voting.msgs_per_txn &&
                 hirep.msgs_per_txn < trustme.msgs_per_txn,
             ""});
        result.checks.push_back(
            {"hiREP is at least as accurate as every decentralized baseline",
             hirep.mse <= voting.mse + 0.01 &&
                 hirep.mse <= trustme.mse + 0.01 &&
                 hirep.mse <= abs_trust.mse + 0.01 &&
                 hirep.mse <= gossip.mse + 0.01,
             "hirep=" + std::to_string(hirep.mse) + " voting=" +
                 std::to_string(voting.mse) + " trustme=" +
                 std::to_string(trustme.mse) + " abs_trust=" +
                 std::to_string(abs_trust.mse) + " gossip=" +
                 std::to_string(gossip.mse)});
        result.checks.push_back(
            {"gossip is the cheapest non-centralized dissemination; the "
             "global fixed point converges below the flooding baselines",
             gossip.msgs_per_txn < voting.msgs_per_txn &&
                 abs_trust.mse < voting.mse + 0.01,
             "gossip_msgs=" + std::to_string(gossip.msgs_per_txn) +
                 " voting_msgs=" + std::to_string(voting.msgs_per_txn) +
                 " abs_mse=" + std::to_string(abs_trust.mse)});
        result.checks.push_back(
            {"only the centralized design goes blind on a single failure "
             "(§3.1)",
             rca.failure_note.find("single point") != std::string::npos, ""});
        return result;
      });
}
