#include "baselines/differential_gossip.hpp"

namespace hirep::baselines {

namespace {

constexpr double kMinMass = 1e-9;  ///< below this a holder stops gossiping

}  // namespace

// Shares pure voting's salts.
DifferentialGossipSystem::DifferentialGossipSystem(
    DifferentialGossipOptions options)
    : World(options, 0x0ddba111ULL, 0x90111e57ULL),
      options_(std::move(options)),
      nodes_(options_.nodes),
      value_(options_.nodes * options_.nodes, 0.0),
      weight_(options_.nodes * options_.nodes, 0.0) {}

double DifferentialGossipSystem::estimate_at(net::NodeIndex node,
                                             net::NodeIndex subject) const {
  const double w = weight_.at(node * nodes_ + subject);
  return w > kMinMass ? value_[node * nodes_ + subject] / w : 0.5;
}

TransactionRecord DifferentialGossipSystem::run_transaction(
    net::NodeIndex requestor, net::NodeIndex provider) {
  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.estimate = estimate_at(requestor, provider);
  record.truth_value = truth_.true_trust(provider);
  const std::uint64_t before = transport_.envelopes().total_hop_messages();

  // Transact, then inject the claimed outcome as fresh opinion mass at the
  // requestor — recruited ring members / front peers falsify through
  // reported_outcome.
  const double outcome = truth_.transaction_outcome(provider);
  const double honest =
      truth_.poor_evaluator(requestor) ? 1.0 - outcome : outcome;
  const double opinion = truth_.reported_outcome(requestor, provider, honest);
  value_[requestor * nodes_ + provider] += opinion;
  weight_[requestor * nodes_ + provider] += 1.0;

  // Differential dissemination: only holders of mass about this subject
  // gossip, for a fixed number of rounds.
  for (std::size_t r = 0; r < options_.gossip_rounds; ++r) {
    gossip_round(provider);
  }
  record.trust_messages = transport_.envelopes().total_hop_messages() - before;
  return record;
}

void DifferentialGossipSystem::gossip_round(net::NodeIndex subject) {
  struct Push {
    net::NodeIndex to;
    double dv;
    double dw;
  };
  auto batch = transport_.make_batch();
  std::vector<Push> pending;
  for (std::size_t v = 0; v < nodes_; ++v) {
    if (weight_[v * nodes_ + subject] <= kMinMass) continue;
    const auto holder = static_cast<net::NodeIndex>(v);
    const auto nbs = overlay_.graph().neighbors(holder);
    if (nbs.empty()) continue;
    const net::NodeIndex to = nbs[rng_.below(nbs.size())];
    // Push-sum: keep half, push half.  The sender halves unconditionally —
    // a lost push loses its mass in flight.
    const double dv = value_[v * nodes_ + subject] * 0.5;
    const double dw = weight_[v * nodes_ + subject] * 0.5;
    value_[v * nodes_ + subject] -= dv;
    weight_[v * nodes_ + subject] -= dw;
    const net::NodeIndex hop[1] = {to};
    batch.push(net::EnvelopeType::kReport, holder, hop);
    pending.push_back(Push{to, dv, dw});
  }
  transport_.send_batch(batch);
  const auto receipts = batch.receipts();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!receipts[i].delivered) continue;
    value_[pending[i].to * nodes_ + subject] += pending[i].dv;
    weight_[pending[i].to * nodes_ + subject] += pending[i].dw;
  }
}

void DifferentialGossipSystem::reset_reputation(net::NodeIndex v) {
  for (std::size_t u = 0; u < nodes_; ++u) {
    value_[u * nodes_ + v] = 0.0;
    weight_[u * nodes_ + v] = 0.0;
  }
}

net::NodeIndex DifferentialGossipSystem::add_node(std::size_t degree) {
  const net::NodeIndex v = join(degree);
  grow_square(value_, nodes_);
  grow_square(weight_, nodes_);
  ++nodes_;
  return v;
}

}  // namespace hirep::baselines
