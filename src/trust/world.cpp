#include "trust/world.hpp"

#include <algorithm>

#include "net/topology.hpp"

namespace hirep::trust {

namespace {

WorldParams world_with_nodes(WorldParams world, std::size_t nodes) {
  world.nodes = nodes;
  return world;
}

}  // namespace

World::World(const WorldOptions& options, std::uint64_t overlay_salt,
             std::uint64_t transport_salt)
    : rng_(options.seed),
      truth_(rng_, world_with_nodes(options.world, options.nodes)),
      overlay_(net::power_law(rng_, options.nodes, options.average_degree),
               options.latency, options.seed ^ overlay_salt),
      transport_(&overlay_, options.delivery, options.seed ^ transport_salt) {}

std::pair<net::NodeIndex, net::NodeIndex> World::random_pair() {
  const std::size_t population = overlay_.node_count();
  const auto requestor = static_cast<net::NodeIndex>(rng_.below(population));
  net::NodeIndex provider = requestor;
  while (provider == requestor) {
    provider = static_cast<net::NodeIndex>(rng_.below(population));
  }
  return {requestor, provider};
}

net::NodeIndex World::join(std::size_t degree) {
  const std::size_t n = overlay_.node_count();
  degree = std::max<std::size_t>(1, std::min(degree, n));
  std::vector<net::NodeIndex> attach;
  for (std::size_t idx : rng_.sample_indices(n, degree)) {
    attach.push_back(static_cast<net::NodeIndex>(idx));
  }
  const net::NodeIndex v = overlay_.add_node(attach);
  (void)truth_.add_node(rng_);
  return v;
}

}  // namespace hirep::trust
