#include "net/overlay.hpp"

#include <algorithm>
#include <stdexcept>

namespace hirep::net {

Overlay::Overlay(Graph graph, LatencyParams latency, std::uint64_t seed)
    : graph_(std::move(graph)),
      latency_(latency, seed),
      busy_until_(graph_.node_count(), 0.0) {}

double Overlay::timed_send(double depart_ms, NodeIndex from, NodeIndex to) {
  if (to >= busy_until_.size()) throw std::out_of_range("bad destination");
  const double arrival = depart_ms + latency_.link_ms(from, to);
  const double start = std::max(arrival, busy_until_[to]);
  const double done = start + latency_.processing_ms();
  busy_until_[to] = done;
  return done;
}

double Overlay::stateless_path(double depart_ms,
                               const std::vector<NodeIndex>& path) {
  if (path.size() < 2) return depart_ms;
  double t = depart_ms;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    t += latency_.link_ms(path[i], path[i + 1]) + latency_.processing_ms();
  }
  return t;
}

void Overlay::reset_time_state() {
  std::fill(busy_until_.begin(), busy_until_.end(), 0.0);
}

NodeIndex Overlay::add_node(std::span<const NodeIndex> neighbors) {
  const NodeIndex v = graph_.add_node();
  busy_until_.push_back(0.0);
  for (NodeIndex nb : neighbors) graph_.add_edge(v, nb);
  return v;
}

NodeIndex Overlay::sample_by_degree(util::Rng& rng) const {
  // Pick a uniform edge endpoint: that is exactly degree-proportional.
  const std::size_t n = graph_.node_count();
  if (graph_.edge_count() == 0) {
    return static_cast<NodeIndex>(rng.below(n));
  }
  for (;;) {
    const auto v = static_cast<NodeIndex>(rng.below(n));
    const auto deg = graph_.degree(v);
    if (deg == 0) continue;
    return graph_.neighbors(v)[rng.below(deg)];
  }
}

}  // namespace hirep::net
