#include "gnutella/session.hpp"

#include <algorithm>

namespace hirep::gnutella {

FileSharingSession::FileSharingSession(core::HirepSystem* system,
                                       SessionOptions options)
    : system_(system),
      options_(options),
      catalog_(system->rng(), system->node_count(), options.catalog) {}

FileSharingSession::DownloadRecord FileSharingSession::download(
    net::NodeIndex requestor) {
  return download(requestor, catalog_.sample_request(system_->rng()));
}

FileSharingSession::DownloadRecord FileSharingSession::download(
    net::NodeIndex requestor, FileId file) {
  DownloadRecord record;
  record.file = file;
  const std::uint64_t trust_before = system_->trust_message_total();

  // 1. QUERY flood + QUERYHITs.
  const auto found = search(system_->transport(), catalog_, requestor, file,
                            options_.query_ttl);
  record.search_messages = found.query_messages + found.hit_messages;
  if (!found.found()) return record;
  record.found = true;

  // 2./3. Trust-check up to max_candidates hits through the trusted
  // agents, nearest hits first (they answered fastest), and keep the best.
  auto hits = found.hits;
  std::stable_sort(hits.begin(), hits.end(),
                   [](const QueryHit& a, const QueryHit& b) {
                     return a.hops < b.hops;
                   });
  double best = -1.0;
  net::NodeIndex chosen = net::kInvalidNode;
  core::HirepSystem::QueryResult chosen_query;
  for (const auto& hit : hits) {
    if (record.candidates >= options_.max_candidates) break;
    if (hit.provider == requestor) continue;
    ++record.candidates;
    auto query = system_->query_trust(requestor, hit.provider);
    if (query.estimate > best) {
      best = query.estimate;
      chosen = hit.provider;
      chosen_query = std::move(query);
    }
  }
  if (chosen == net::kInvalidNode) {
    record.found = false;  // the only hit was our own copy
    return record;
  }

  // 4. Download + expertise update + signed reports + maintenance.
  record.provider = chosen;
  record.estimate = best;
  record.polluted = catalog_.copy_polluted(system_->truth(), chosen);
  system_->complete_transaction(requestor, chosen, chosen_query);

  record.trust_messages = system_->trust_message_total() - trust_before;
  ++downloads_;
  polluted_ += record.polluted;
  return record;
}

}  // namespace hirep::gnutella
