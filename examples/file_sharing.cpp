// File-sharing scenario — the paper's motivating problem: polluted content
// in a KaZaA-style network (§1).  Every strategy uses the same Gnutella
// QUERY/QUERYHIT search to discover candidate providers (Figure 1); they
// differ only in how a provider is chosen among the hits:
//
//   * no reputation    — take the nearest QueryHit
//   * pure voting      — flood a trust poll per candidate, average votes
//   * hiREP            — ask your trusted agents (FileSharingSession)
//
// Reported: polluted-download rate and trust traffic per download.
//
//   ./build/examples/file_sharing [nodes=400] [downloads=300] [seed=1]
#include <algorithm>
#include <iostream>

#include "baselines/pure_voting.hpp"
#include "gnutella/session.hpp"
#include "net/topology.hpp"
#include "sim/scenario.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

using namespace hirep;

struct Outcome {
  double polluted_rate = 0.0;
  double trust_msgs_per_download = 0.0;
  double search_msgs_per_download = 0.0;
};

gnutella::CatalogParams catalog_params() {
  gnutella::CatalogParams p;
  p.files = 60;
  p.min_replicas = 3;
  p.max_replicas = 50;
  p.popularity_zipf_s = 1.1;
  return p;
}

constexpr std::uint32_t kQueryTtl = 4;
constexpr std::size_t kMaxCandidates = 4;

Outcome run_without_reputation(std::size_t nodes, std::size_t downloads,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  trust::WorldParams wp;
  wp.nodes = nodes;
  trust::GroundTruth truth(rng, wp);
  net::Overlay overlay(net::power_law(rng, nodes, 4.0), net::LatencyParams{},
                       seed);
  net::Transport transport(&overlay, net::DeliveryConfig{}, seed);
  gnutella::ContentCatalog catalog(rng, nodes, catalog_params());

  std::size_t polluted = 0, found = 0;
  std::uint64_t search_msgs = 0;
  for (std::size_t d = 0; d < downloads; ++d) {
    const auto requestor = static_cast<net::NodeIndex>(rng.below(nodes));
    const auto file = catalog.sample_request(rng);
    const auto result = gnutella::search(transport, catalog, requestor, file,
                                         kQueryTtl);
    search_msgs += result.query_messages + result.hit_messages;
    if (!result.found()) continue;
    // Nearest hit wins — what an unprotected client does.
    const auto nearest = *std::min_element(
        result.hits.begin(), result.hits.end(),
        [](const auto& a, const auto& b) { return a.hops < b.hops; });
    ++found;
    polluted += catalog.copy_polluted(truth, nearest.provider);
  }
  return {found ? static_cast<double>(polluted) / static_cast<double>(found) : 0.0,
          0.0,
          static_cast<double>(search_msgs) / static_cast<double>(downloads)};
}

Outcome run_with_voting(std::size_t nodes, std::size_t downloads,
                        std::uint64_t seed) {
  baselines::VotingOptions options;
  options.nodes = nodes;
  options.seed = seed;
  baselines::PureVotingSystem system(options);
  gnutella::ContentCatalog catalog(system.rng(), nodes, catalog_params());

  std::size_t polluted = 0, found = 0;
  std::uint64_t trust_msgs = 0, search_msgs = 0;
  for (std::size_t d = 0; d < downloads; ++d) {
    const auto requestor =
        static_cast<net::NodeIndex>(system.rng().below(nodes));
    const auto file = catalog.sample_request(system.rng());
    const auto result = gnutella::search(system.transport(), catalog,
                                         requestor, file, kQueryTtl);
    search_msgs += result.query_messages + result.hit_messages;
    if (!result.found()) continue;
    double best = -1.0;
    net::NodeIndex chosen = net::kInvalidNode;
    std::size_t checked = 0;
    for (const auto& hit : result.hits) {
      if (checked++ >= kMaxCandidates) break;
      const auto poll = system.poll(requestor, hit.provider);
      trust_msgs += poll.messages;
      if (poll.estimate > best) {
        best = poll.estimate;
        chosen = hit.provider;
      }
    }
    if (chosen == net::kInvalidNode) continue;
    ++found;
    polluted += catalog.copy_polluted(system.truth(), chosen);
  }
  return {found ? static_cast<double>(polluted) / static_cast<double>(found) : 0.0,
          static_cast<double>(trust_msgs) / static_cast<double>(downloads),
          static_cast<double>(search_msgs) / static_cast<double>(downloads)};
}

Outcome run_with_hirep(std::size_t nodes, std::size_t downloads,
                       std::uint64_t seed) {
  auto scenario = sim::Scenario().network_size(nodes).seed(seed).crypto(
      "fast");
  scenario.params().requestor_pool = 0;
  scenario.params().provider_pool = 0;
  scenario.validate();
  core::HirepSystem system(scenario.hirep_options());

  gnutella::SessionOptions session_options;
  session_options.catalog = catalog_params();
  session_options.query_ttl = kQueryTtl;
  session_options.max_candidates = kMaxCandidates;
  gnutella::FileSharingSession session(&system, session_options);

  std::uint64_t trust_msgs = 0, search_msgs = 0;
  for (std::size_t d = 0; d < downloads; ++d) {
    const auto requestor =
        static_cast<net::NodeIndex>(system.rng().below(nodes));
    const auto rec = session.download(requestor);
    trust_msgs += rec.trust_messages;
    search_msgs += rec.search_messages;
  }
  return {session.pollution_rate(),
          static_cast<double>(trust_msgs) / static_cast<double>(downloads),
          static_cast<double>(search_msgs) / static_cast<double>(downloads)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  const auto nodes = static_cast<std::size_t>(cfg.get_int("nodes", 400));
  const auto downloads =
      static_cast<std::size_t>(cfg.get_int("downloads", 300));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  std::cout << "File-sharing pollution scenario: " << nodes << " peers, "
            << downloads << " Zipf-skewed downloads over Gnutella search, up "
            << "to " << kMaxCandidates
            << " QueryHit candidates trust-checked per download\n\n";

  const auto none = run_without_reputation(nodes, downloads, seed);
  const auto voting = run_with_voting(nodes, downloads, seed);
  const auto hirep = run_with_hirep(nodes, downloads, seed);

  util::Table table({"strategy", "polluted_rate", "trust_msgs/download",
                     "search_msgs/download"});
  table.add_row({std::string("no reputation (nearest hit)"),
                 none.polluted_rate, none.trust_msgs_per_download,
                 none.search_msgs_per_download});
  table.add_row({std::string("pure voting (P2PREP-style)"),
                 voting.polluted_rate, voting.trust_msgs_per_download,
                 voting.search_msgs_per_download});
  table.add_row({std::string("hiREP"), hirep.polluted_rate,
                 hirep.trust_msgs_per_download,
                 hirep.search_msgs_per_download});
  table.print(std::cout);

  std::cout << "\nhiREP filters pollution nearly as well as exhaustive "
               "polling at a small fraction of the trust traffic; search "
               "cost is identical for everyone.\n";
  const bool ok =
      hirep.polluted_rate < none.polluted_rate &&
      hirep.trust_msgs_per_download < voting.trust_msgs_per_download;
  std::cout << (ok ? "[PASS]" : "[FAIL]")
            << " hiREP beats no-reputation on quality and voting on cost\n";
  return ok ? 0 : 1;
}
