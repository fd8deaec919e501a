// Quickstart: stand up a hiREP deployment, run transactions, inspect what
// the reputation layer learned.
//
//   ./build/examples/quickstart [nodes=300] [transactions=100] [seed=1]
#include <iostream>

#include "hirep/system.hpp"
#include "sim/scenario.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace hirep;
  const auto cfg = util::Config::from_args(argc, argv);

  // 1. Configure the deployment through sim::Scenario — one validated
  //    parameter set projected into the engine options; full crypto runs
  //    every onion layer for real.
  auto scenario = sim::Scenario()
                      .network_size(static_cast<std::size_t>(
                          cfg.get_int("nodes", 300)))
                      .seed(static_cast<std::uint64_t>(cfg.get_int("seed", 1)))
                      .crypto("full")
                      .malicious_ratio(0.10);  // Table 1: 10% poor evaluators
  // This demo drives its own workload; the figure-runner pools don't apply.
  scenario.params().requestor_pool = 0;
  scenario.params().provider_pool = 0;
  scenario.params().rsa_bits = 128;
  scenario.validate();
  const core::HirepOptions options = scenario.hirep_options();

  std::cout << "Bootstrapping " << options.nodes
            << "-node overlay (power-law topology, RSA-" << options.rsa_bits
            << " identities, onion routing)...\n";
  core::HirepSystem system(options);

  std::cout << "  reputation agents      : " << system.agent_count() << '\n';
  std::cout << "  peer 0 trusted agents  : " << system.peer(0).agents().size()
            << '\n';
  std::cout << "  peer 0 nodeId          : "
            << system.peer(0).node_id().short_hex(12) << '\n';

  // 2. Ask the reputation layer about a potential file provider.
  const net::NodeIndex requestor = 0, provider = 42;
  const auto query = system.query_trust(requestor, provider);
  std::cout << "\nTrust query: peer 0 -> provider 42\n";
  std::cout << "  agents answering       : " << query.ratings.size() << '\n';
  std::cout << "  estimated trust        : " << query.estimate << '\n';
  std::cout << "  ground truth           : "
            << system.truth().true_trust(provider) << '\n';

  // 3. Run a stream of transactions; the expertise filter learns which
  //    agents evaluate well and the estimate error shrinks.
  const auto txns =
      static_cast<std::size_t>(cfg.get_int("transactions", 100));
  util::MseAccumulator first_half, second_half;
  for (std::size_t t = 0; t < txns; ++t) {
    // A small active community, as in the paper's evaluation workload.
    const auto req = static_cast<net::NodeIndex>(t % 8);
    auto prov = static_cast<net::NodeIndex>(
        8 + system.rng().below(options.nodes - 8));
    const auto rec = system.run_transaction(req, prov);
    (t < txns / 2 ? first_half : second_half)
        .add(rec.estimate, rec.truth_value);
  }
  std::cout << "\nAfter " << txns << " transactions:\n";
  std::cout << "  MSE (first half)       : " << first_half.mse() << '\n';
  std::cout << "  MSE (second half)      : " << second_half.mse() << '\n';
  std::cout << "  trust traffic          : " << system.trust_message_total()
            << " messages ("
            << static_cast<double>(system.trust_message_total()) /
                   static_cast<double>(txns)
            << "/transaction — O(c), never a flood)\n";
  std::cout << "\nTraffic breakdown: "
            << system.transport().envelopes().summary() << '\n';
  return 0;
}
