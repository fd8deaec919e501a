#include "baselines/rca.hpp"

#include <algorithm>

namespace hirep::baselines {

RcaSystem::RcaSystem(RcaOptions options)
    : World(options, 0x5ca1ab1eULL, 0x7e1eca57ULL),
      options_(std::move(options)),
      model_factory_(trust::model_factory_by_name(options_.model)) {}

TransactionRecord RcaSystem::run_transaction() {
  const auto [requestor, provider] = random_pair();
  return run_transaction(requestor, provider);
}

TransactionRecord RcaSystem::run_transaction(net::NodeIndex requestor,
                                             net::NodeIndex provider) {
  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.truth_value = truth_.true_trust(provider);
  const std::uint64_t before = transport_.envelopes().total_hop_messages();
  // Every message is one hop between a peer and the RCA.
  const net::NodeIndex rca = options_.rca_node;
  const auto delivered = [&](net::EnvelopeType type, net::NodeIndex from,
                             net::NodeIndex to) {
    return transport_.send(type, from, {to}).delivered;
  };

  // Query + response with the RCA: two point-to-point messages.  The RCA
  // answers only a request that reached it.
  if (online_ &&
      delivered(net::EnvelopeType::kTrustRequest, requestor, rca) &&
      delivered(net::EnvelopeType::kTrustResponse, rca, requestor)) {
    const auto it = stores_.find(provider);
    record.estimate = (it != stores_.end() && it->second->observations() > 0)
                          ? it->second->value()
                          : 0.5;
    record.responses = 1;
  }

  const double outcome = truth_.transaction_outcome(provider);
  if (online_ && delivered(net::EnvelopeType::kReport, requestor, rca)) {
    // Signed report to the RCA: one message; the RCA's model updates.
    auto it = stores_.find(provider);
    if (it == stores_.end()) {
      it = stores_.emplace(provider, model_factory_()).first;
    }
    it->second->record(outcome);
  }

  record.trust_messages = transport_.envelopes().total_hop_messages() - before;
  return record;
}

double RcaSystem::timed_query_burst_ms(std::size_t concurrent) {
  overlay_.reset_time_state();
  double last = 0.0;
  for (std::size_t i = 0; i < concurrent; ++i) {
    const auto requestor =
        static_cast<net::NodeIndex>(rng_.below(options_.nodes));
    if (requestor == options_.rca_node) continue;
    // Request into the RCA's serial queue...
    const double at_rca =
        overlay_.timed_send(0.0, requestor, options_.rca_node);
    // ...and the response back out.
    const double done =
        overlay_.timed_send(at_rca, options_.rca_node, requestor);
    last = std::max(last, done);
  }
  return last;
}

}  // namespace hirep::baselines
