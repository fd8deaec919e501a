#include "gnutella/search.hpp"

#include <algorithm>
#include <limits>

namespace hirep::gnutella {

SearchResult search(net::Transport& transport, const ContentCatalog& catalog,
                    net::NodeIndex requestor, FileId file, std::uint32_t ttl) {
  SearchResult result;
  result.file = file;
  const auto flood =
      net::flood(transport, requestor, ttl, net::EnvelopeType::kQuery);
  result.query_messages = flood.messages;
  const auto parent = flood.parents_by_node(transport.overlay().node_count());

  // Every QueryHit of one search rides back in a single envelope batch,
  // hop by hop along the reverse flooding path, as pure voting's votes do.
  auto batch = transport.make_batch();
  std::vector<QueryHit> answered;
  std::vector<net::NodeIndex> reverse;
  for (std::size_t i = 0; i < flood.reached.size(); ++i) {
    const net::NodeIndex node = flood.reached[i];
    if (!catalog.has_file(node, file)) continue;
    reverse.clear();
    for (net::NodeIndex at = node; at != requestor;) {
      at = parent[at];
      reverse.push_back(at);
    }
    batch.push(net::EnvelopeType::kQueryHit, node, reverse);
    answered.push_back({node, flood.depth[i]});
  }
  const auto receipts = transport.send_batch(batch);
  for (std::size_t i = 0; i < answered.size(); ++i) {
    result.hit_messages += receipts[i].messages;
    if (receipts[i].delivered) result.hits.push_back(answered[i]);
  }
  return result;
}

double search_first_hit_ms(net::Overlay& overlay,
                           const ContentCatalog& catalog,
                           net::NodeIndex requestor, FileId file,
                           std::uint32_t ttl) {
  overlay.reset_time_state();
  const auto arrivals = net::timed_flood(overlay, requestor, ttl, 0.0);
  std::vector<net::NodeIndex> parent(overlay.node_count(), net::kInvalidNode);
  for (const auto& a : arrivals) parent[a.node] = a.parent;

  double first = std::numeric_limits<double>::max();
  for (const auto& a : arrivals) {
    if (!catalog.has_file(a.node, file)) continue;
    double t = a.time_ms;
    net::NodeIndex at = a.node;
    while (at != requestor) {
      const net::NodeIndex up = parent[at];
      t = overlay.timed_send(t, at, up);
      at = up;
    }
    first = std::min(first, t);
  }
  return first == std::numeric_limits<double>::max() ? -1.0 : first;
}

}  // namespace hirep::gnutella
