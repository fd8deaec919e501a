// Attack resilience walkthrough — executes every §4.2 attack scenario
// against a live full-crypto deployment and reports the outcome the paper
// predicts for each.
//
//   ./build/examples/attack_resilience [nodes=96] [seed=3]
#include <iomanip>
#include <iostream>
#include <span>
#include <vector>

#include "sim/attacks.hpp"
#include "sim/scenario.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace hirep;
  const auto cfg = util::Config::from_args(argc, argv);

  auto scenario = sim::Scenario()
                      .network_size(static_cast<std::size_t>(
                          cfg.get_int("nodes", 96)))
                      .seed(static_cast<std::uint64_t>(cfg.get_int("seed", 3)))
                      .crypto("full")
                      .malicious_ratio(0.15);
  scenario.params().requestor_pool = 0;
  scenario.params().provider_pool = 0;
  scenario.params().rsa_bits = 128;
  scenario.validate();
  const core::HirepOptions options = scenario.hirep_options();
  core::HirepSystem system(options);

  int failures = 0;
  auto report = [&failures](const std::string& name, bool defended,
                            const std::string& paper_ref) {
    std::cout << (defended ? "[DEFENDED] " : "[BREACHED] ") << std::left
              << std::setw(46) << name << ' ' << paper_ref << '\n';
    failures += !defended;
  };

  std::cout << "hiREP attack resilience (" << options.nodes
            << " nodes, full crypto)\n\n";

  // --- identity manipulation (§4.2.2) --------------------------------------
  net::NodeIndex agent_ip = 0;
  while (system.agent_at(agent_ip) == nullptr) ++agent_ip;
  report("report forged in another peer's name",
         !sim::attempt_report_spoof(system, 1, 2, agent_ip, 30), "§4.2.2");
  report("man-in-the-middle anonymity-key substitution",
         !sim::attempt_mitm_key_substitution(system, 4, 20, 21), "§3.3/§4.2.2");
  report("stale onion replay",
         !sim::attempt_onion_replay(system, 7), "§3.3");

  // --- trusted-agent manipulation (§4.2.1) ---------------------------------
  {
    // An honest list ranks a good agent top; attackers flood bad-mouthing +
    // shilling lists.  Max-rank selection must keep the good agent.
    const auto agents = system.truth().agent_capable_nodes();
    const net::NodeIndex good = agents[0];
    const std::vector<net::NodeIndex> shills{agents[1], agents[2]};
    auto lists = sim::hostile_recommendations(system, {good}, shills, 10);
    // Add the one honest recommendation.
    core::AgentEntry honest;
    honest.agent_id = system.identities()[good].node_id();
    honest.agent_key = system.identities()[good].signature_public();
    honest.weight = 1.0;
    lists.push_back({honest});
    const std::vector<std::span<const core::AgentEntry>> views(lists.begin(),
                                                               lists.end());
    const auto selected = core::rank_and_select(views, 3, system.rng());
    bool good_survives = false;
    for (const auto& e : selected) {
      good_survives |= (e.agent_id == honest.agent_id);
    }
    report("bad-mouthing a high-performance agent", good_survives, "§4.2.1");
  }

  // --- evaluation manipulation (§4.2.3) + Sybil (§4.2.2) -------------------
  {
    const auto converted = sim::sybil_corrupt_agents(system, 8);
    util::MseAccumulator mse;
    for (int i = 0; i < 120; ++i) {
      const auto req = static_cast<net::NodeIndex>(i % 6);
      const auto prov = static_cast<net::NodeIndex>(
          6 + system.rng().below(options.nodes - 6));
      const auto rec = system.run_transaction(req, prov);
      if (i >= 60) mse.add(rec.estimate, rec.truth_value);
    }
    std::cout << "  (8 Sybil agent identities converted; post-training MSE = "
              << mse.mse() << ")\n";
    report("Sybil identities feeding wrong evaluations", mse.mse() < 0.15,
           "§4.2.2–4.2.3");
  }

  // --- DoS on high-performance agents (§4.2.4) -----------------------------
  {
    const auto victims = sim::dos_top_agents(system, 6);
    std::size_t responded = 0, asked = 0;
    for (int i = 0; i < 40; ++i) {
      const auto rec = system.run_transaction();
      responded += rec.responses;
      asked += 1;
    }
    std::cout << "  (" << victims.size()
              << " most-referenced agents taken down; avg responses/txn "
              << static_cast<double>(responded) / static_cast<double>(asked)
              << ")\n";
    report("DoS against the most popular trusted agents",
           responded > 0, "§4.2.4");
  }

  std::cout << '\n'
            << (failures == 0 ? "All attacks defended, as §4.2 claims.\n"
                              : "SOME ATTACKS SUCCEEDED — investigate!\n");
  return failures == 0 ? 0 : 1;
}
