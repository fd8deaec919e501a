#include "hirep/peer.hpp"

#include "check/invariants.hpp"
#include "hirep/protocol.hpp"

namespace hirep::core {

Peer::Peer(const crypto::Identity* identity, net::NodeIndex ip,
           ListParams params)
    : identity_(identity), ip_(ip), agents_(params) {}

void Peer::set_relays(std::vector<onion::RelayInfo> relays) {
  relays_ = std::move(relays);
}

std::vector<net::NodeIndex> Peer::relay_path() const {
  // build_onion takes relays ordered owner-adjacent first; the wire path
  // (entry first) is the reverse, ending at the owner.
  std::vector<net::NodeIndex> path;
  path.reserve(relays_.size() + 1);
  for (auto it = relays_.rbegin(); it != relays_.rend(); ++it) {
    path.push_back(it->ip);
  }
  path.push_back(ip_);
  return path;
}

onion::Onion Peer::issue_onion(util::Rng& rng, const CipherSuite& suite) {
  const std::uint64_t sq = next_sq();
  if constexpr (check::kEnabled) {
    issued_sq_.note(crypto::NodeIdHash{}(node_id()), ip_, sq);
  }
  return suite.issue_onion(rng, *identity_, ip_, relays_, sq);
}

std::optional<double> Peer::first_hand(const crypto::NodeId& subject) const {
  const auto it = first_hand_.find(subject);
  if (it == first_hand_.end()) return std::nullopt;
  return it->second;
}

void Peer::note_outcome(const crypto::NodeId& subject, double outcome) {
  const double alpha = agents_.params().alpha;
  const auto [it, inserted] = first_hand_.try_emplace(subject, outcome);
  if (!inserted) {
    it->second = alpha * outcome + (1.0 - alpha) * it->second;
  }
  if constexpr (check::kEnabled) {
    check::unit_interval("hirep.first_hand.bounds", it->second);
  }
}

double Peer::aggregate(
    const std::vector<std::pair<double, double>>& value_weight_pairs) {
  if (value_weight_pairs.empty()) return 0.5;
  double weighted = 0.0, weight_sum = 0.0, plain = 0.0;
  for (const auto& [value, weight] : value_weight_pairs) {
    weighted += value * weight;
    weight_sum += weight;
    plain += value;
  }
  const double estimate = weight_sum > 0.0
                              ? weighted / weight_sum
                              : plain / static_cast<double>(
                                            value_weight_pairs.size());
  if constexpr (check::kEnabled) {
    check::unit_interval("hirep.aggregate.bounds", estimate);
  }
  return estimate;
}

}  // namespace hirep::core
