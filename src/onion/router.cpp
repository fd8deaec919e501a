#include "onion/router.hpp"

#include "obs/metrics.hpp"

namespace hirep::onion {

Router::Router(IdentityResolver resolver) : resolver_(std::move(resolver)) {}

Router::Router(const std::vector<crypto::Identity>* identities)
    : Router([identities](net::NodeIndex v) -> const crypto::Identity* {
        return v < identities->size() ? &(*identities)[v] : nullptr;
      }) {}

void Router::note_issued(const crypto::NodeId& owner, std::uint64_t sq) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& issued =
        obs::Registry::global().counter("onion.sq.issued");
    issued.add();
  }
  if constexpr (check::kEnabled) {
    issued_sq_.note(crypto::NodeIdHash{}(owner), 0, sq);
  }
}

std::optional<std::vector<net::NodeIndex>> Router::peel_path(
    const Onion& onion) {
  if (!verify_onion(onion)) return std::nullopt;
  if (!guard_.accept(crypto::NodeId::of_key(onion.owner_sig_key), onion.sq)) {
    return std::nullopt;
  }
  std::vector<net::NodeIndex> path;
  path.reserve(onion.relay_count + 1);
  net::NodeIndex at = onion.entry;
  util::Bytes blob = onion.blob;
  for (std::uint32_t step = 0; step <= onion.relay_count + 1; ++step) {
    const crypto::Identity* holder = resolver_(at);
    if (holder == nullptr) return std::nullopt;
    path.push_back(at);
    const auto peeled = peel(blob, holder->anonymity_private());
    if (!peeled) return std::nullopt;
    if (peeled->terminal) return path;
    at = peeled->next;
    blob = peeled->inner;
  }
  return std::nullopt;  // layer structure deeper than declared: reject
}

std::vector<net::NodeIndex> pick_relay_ips(util::Rng& rng, std::size_t n,
                                           std::size_t count,
                                           net::NodeIndex owner) {
  std::vector<net::NodeIndex> out;
  if (count >= n) count = n > 1 ? n - 1 : 0;
  out.reserve(count);
  while (out.size() < count) {
    const auto candidate = static_cast<net::NodeIndex>(rng.below(n));
    if (candidate == owner) continue;
    bool duplicate = false;
    for (net::NodeIndex existing : out) {
      if (existing == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(candidate);
  }
  return out;
}

}  // namespace hirep::onion
