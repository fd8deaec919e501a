#include "sim/response_time.hpp"

#include <algorithm>

namespace hirep::sim {

double hirep_query_response_ms(core::HirepSystem& system,
                               net::NodeIndex requestor,
                               net::NodeIndex subject) {
  (void)subject;  // the timing depends only on the paths, not the subject
  auto& overlay = system.overlay();
  overlay.reset_time_state();
  core::Peer& p = system.peer(requestor);

  // The reply path back into the requestor (its own onion's route).
  const auto reply_path = p.relay_path();

  double last = 0.0;
  for (const auto& entry : p.agents().entries()) {
    if (entry.relay_path.empty()) continue;
    const auto ip = system.ip_of(entry.agent_id);
    if (!ip || !system.agent_online(*ip)) continue;

    // Request: requestor -> entry relay chain -> agent.  Circuits are
    // independent and evaluated out of time order, so they use the
    // stateless cost model (propagation + per-hop processing).
    std::vector<net::NodeIndex> out_path;
    out_path.reserve(entry.relay_path.size() + 1);
    out_path.push_back(requestor);
    out_path.insert(out_path.end(), entry.relay_path.begin(),
                    entry.relay_path.end());
    const double at_agent = overlay.stateless_path(0.0, out_path);

    // Response: agent -> requestor's reply onion, except the final hop into
    // the requestor, which serializes: the requestor ingests the c
    // responses one at a time.
    std::vector<net::NodeIndex> back_path;
    back_path.reserve(reply_path.size() + 1);
    back_path.push_back(*ip);
    back_path.insert(back_path.end(), reply_path.begin(), reply_path.end());
    const net::NodeIndex last_relay = back_path[back_path.size() - 2];
    std::vector<net::NodeIndex> to_relay(back_path.begin(), back_path.end() - 1);
    const double at_relay = overlay.stateless_path(at_agent, to_relay);
    const double at_peer = overlay.timed_send(at_relay, last_relay, requestor);
    last = std::max(last, at_peer);
  }
  return last;
}

ExperimentResult run_fig8_response(const Params& params,
                                   SeedExecution execution) {
  const std::size_t total = params.transactions;
  const std::size_t step = std::max<std::size_t>(1, total / 10);
  std::vector<std::size_t> checkpoints;
  for (std::size_t t = step; t <= total; t += step) checkpoints.push_back(t);

  auto hirep_series = [&](std::size_t relays) {
    return average_over_seeds(params, [&](std::uint64_t seed) {
      Params p = params;
      p.seed = seed;
      p.relays_per_onion = relays;
      core::HirepSystem system(p.hirep_options());
      std::vector<double> ys;
      double cumulative = 0.0;
      std::size_t next = 0;
      for (std::size_t t = 1; t <= total; ++t) {
        const auto [requestor, provider] = system.random_pair();
        cumulative += hirep_query_response_ms(system, requestor, provider);
        // Keep the reputation dynamics running so the measured system is
        // the live one (expertise updates, reports, maintenance).
        system.run_transaction(requestor, provider);
        if (next < checkpoints.size() && t == checkpoints[next]) {
          ys.push_back(cumulative);
          ++next;
        }
      }
      return ys;
    }, execution);
  };

  auto voting = average_over_seeds(params, [&](std::uint64_t seed) {
    Params p = params;
    p.seed = seed;
    baselines::PureVotingSystem system(p.voting_options());
    std::vector<double> ys;
    double cumulative = 0.0;
    std::size_t next = 0;
    for (std::size_t t = 1; t <= total; ++t) {
      const auto [requestor, provider] = system.random_pair();
      cumulative += system.poll_timed(requestor, provider).response_ms;
      if (next < checkpoints.size() && t == checkpoints[next]) {
        ys.push_back(cumulative);
        ++next;
      }
    }
    return ys;
  }, execution);

  const auto h10 = hirep_series(10);
  const auto h7 = hirep_series(7);
  const auto h5 = hirep_series(5);

  util::Table table(
      {"transactions", "voting", "hirep-10", "hirep-7", "hirep-5"});
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    table.add_row({static_cast<std::int64_t>(checkpoints[i]), voting[i],
                   h10[i], h7[i], h5[i]});
  }

  ExperimentResult result{std::move(table), {}};
  result.checks.push_back(
      {"fewer onion relays -> lower response time (hirep-5 < hirep-7 < hirep-10)",
       h5.back() < h7.back() && h7.back() < h10.back(),
       "h5=" + std::to_string(h5.back()) + " h7=" + std::to_string(h7.back()) +
           " h10=" + std::to_string(h10.back())});
  result.checks.push_back(
      {"average hirep response time below pure voting (Fig 8)",
       h10.back() < voting.back(),
       "hirep-10=" + std::to_string(h10.back()) + " voting=" +
           std::to_string(voting.back())});
  return result;
}

}  // namespace hirep::sim
