// Gnutella 0.6-style QUERY / QUERYHIT over the unstructured overlay: the
// requestor floods a keyword query with a TTL; every reached node holding
// a matching file answers with a QueryHit routed back along the reverse
// flooding path (Gnutella semantics).  This is the "query request to the
// whole system" step of the paper's Figure-1 transaction flow.
#pragma once

#include "gnutella/content.hpp"
#include "net/flood.hpp"

namespace hirep::gnutella {

struct QueryHit {
  net::NodeIndex provider = net::kInvalidNode;
  std::uint32_t hops = 0;  ///< distance the hit travelled back
};

struct SearchResult {
  FileId file = 0;
  std::vector<QueryHit> hits;        ///< hits that reached the requestor
  std::uint64_t query_messages = 0;  ///< flood transmissions
  std::uint64_t hit_messages = 0;    ///< reverse-path hit transmissions
  bool found() const noexcept { return !hits.empty(); }
};

/// Floods a query for `file` from `requestor` as kQuery envelopes; every
/// reached holder answers with one kQueryHit envelope back along the
/// reverse flooding path, all hits of one search in one batch.  A hit lost
/// on the way back never reaches the requestor.  The requestor's own copy
/// (if any) does not generate a hit.
SearchResult search(net::Transport& transport, const ContentCatalog& catalog,
                    net::NodeIndex requestor, FileId file, std::uint32_t ttl);

/// Timed variant for latency studies: returns the time the FIRST QueryHit
/// reaches the requestor (the user can start the download then), or a
/// negative value when nothing was found within the TTL.  Runs on the
/// overlay's queueing model and sends no envelope.
double search_first_hit_ms(net::Overlay& overlay, const ContentCatalog& catalog,
                           net::NodeIndex requestor, FileId file,
                           std::uint32_t ttl);

}  // namespace hirep::gnutella
