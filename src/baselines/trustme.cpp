#include "baselines/trustme.hpp"

namespace hirep::baselines {

TrustMeSystem::TrustMeSystem(TrustMeOptions options)
    : World(options, 0x7157731eULL, 0x7153131dULL),
      options_(std::move(options)),
      thas_(options_.nodes),
      model_factory_(trust::model_factory_by_name(options_.model)) {
  // Bootstrap-server THA assignment: random, so "the probability of each
  // peer to be a THA is similar" (§2).
  for (std::size_t peer = 0; peer < options_.nodes; ++peer) {
    auto picks = rng_.sample_indices(options_.nodes, options_.thas_per_peer + 1);
    for (std::size_t idx : picks) {
      if (thas_[peer].size() >= options_.thas_per_peer) break;
      if (idx == peer) continue;
      thas_[peer].push_back(static_cast<net::NodeIndex>(idx));
    }
  }
}

const std::vector<net::NodeIndex>& TrustMeSystem::thas_of(
    net::NodeIndex peer) const {
  return thas_.at(peer);
}

double TrustMeSystem::tha_answer(net::NodeIndex tha, net::NodeIndex subject) {
  // A malicious THA inverts whatever it would report.
  const auto it = stores_.find({tha, subject});
  double value;
  if (it != stores_.end() && it->second->observations() > 0) {
    value = it->second->value();
  } else {
    value = 0.5;  // no evidence yet
  }
  return truth_.poor_evaluator(tha) ? 1.0 - value : value;
}

TransactionRecord TrustMeSystem::run_transaction() {
  const auto [requestor, provider] = random_pair();
  return run_transaction(requestor, provider);
}

TransactionRecord TrustMeSystem::run_transaction(net::NodeIndex requestor,
                                                 net::NodeIndex provider) {
  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.truth_value = truth_.true_trust(provider);
  const std::uint64_t before = transport_.envelopes().total_hop_messages();

  // Broadcast #1: the trust query floods the system; the provider's THAs
  // that heard it answer along the reverse path.
  const auto query_flood = net::flood(transport_, requestor, options_.ttl,
                                      net::EnvelopeType::kTrustRequest);
  const auto parent = query_flood.parents_by_node(overlay_.node_count());
  // All THA answers of one query ride back in a single envelope batch;
  // the answers themselves are read at tally time (tha_answer is a pure
  // read of the stores, which only change under broadcast #2 below).
  // Every answer targets the requestor, so the destination-sorted drain
  // degenerates to entry order and the float sum matches the sequential
  // form bit for bit.
  auto batch = transport_.make_batch();
  std::vector<net::NodeIndex> answering;
  std::vector<net::NodeIndex> reverse;
  for (std::size_t i = 0; i < query_flood.reached.size(); ++i) {
    const net::NodeIndex node = query_flood.reached[i];
    for (net::NodeIndex tha : thas_[provider]) {
      if (tha != node) continue;
      reverse.clear();
      reverse.reserve(query_flood.depth[i]);
      for (net::NodeIndex at = tha; at != requestor;) {
        const net::NodeIndex up = parent[at];
        reverse.push_back(up);
        at = up;
      }
      batch.push(net::EnvelopeType::kTrustResponse, tha, reverse);
      answering.push_back(tha);
    }
  }
  transport_.send_batch(batch);
  double sum = 0.0;
  // Single-destination drain (every answer lands at the requestor), so the
  // grouped visit degenerates to one group in entry order.
  batch.drain_groups(
      [](std::size_t, const net::DeliveryReceipt& r) {
        return static_cast<std::uint64_t>(r.destination);
      },
      [&](const net::ReceiptGroup& group) {
        for (const std::uint32_t i : group.entries) {
          // An answer lost on the way back never reaches the tally.
          sum += tha_answer(answering[i], provider);
          ++record.responses;
        }
      });
  record.estimate = record.responses
                        ? sum / static_cast<double>(record.responses)
                        : 0.5;

  // The transaction happens; broadcast #2 spreads the result the requestor
  // *claims* (identical to the observation unless an adversary engine
  // recruited the requestor as a ring member or front peer) so the
  // provider's THAs can store it.
  const double outcome = truth_.transaction_outcome(provider);
  const double reported = truth_.reported_outcome(requestor, provider, outcome);
  const auto report_flood = net::flood(transport_, requestor, options_.ttl,
                                       net::EnvelopeType::kReport);
  for (net::NodeIndex node : report_flood.reached) {
    for (net::NodeIndex tha : thas_[provider]) {
      if (tha != node) continue;
      auto key = std::make_pair(tha, provider);
      auto it = stores_.find(key);
      if (it == stores_.end()) {
        it = stores_.emplace(key, model_factory_()).first;
      }
      it->second->record(reported);
    }
  }

  record.trust_messages = transport_.envelopes().total_hop_messages() - before;
  return record;
}

void TrustMeSystem::reset_reputation(net::NodeIndex v) {
  for (auto it = stores_.begin(); it != stores_.end();) {
    it = it->first.second == v ? stores_.erase(it) : std::next(it);
  }
}

}  // namespace hirep::baselines
