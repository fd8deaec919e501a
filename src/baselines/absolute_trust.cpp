#include "baselines/absolute_trust.hpp"

#include <algorithm>
#include <cmath>

namespace hirep::baselines {

// Shares pure voting's salts.
AbsoluteTrustSystem::AbsoluteTrustSystem(AbsoluteTrustOptions options)
    : World(options, 0x0ddba111ULL, 0x90111e57ULL),
      options_(std::move(options)),
      opinion_sum_(options_.nodes * options_.nodes, 0.0),
      opinion_cnt_(options_.nodes * options_.nodes, 0),
      global_(options_.nodes, 0.5) {}

TransactionRecord AbsoluteTrustSystem::run_transaction(
    net::NodeIndex requestor, net::NodeIndex provider) {
  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  const std::uint64_t before = transport_.envelopes().total_hop_messages();

  // Trust-state exchange with the neighborhood: one request out to every
  // neighbor, one response back.  This is the per-transaction message cost
  // of keeping the distributed fixed point current.
  auto batch = transport_.make_batch();
  const net::NodeIndex hop[1] = {requestor};
  for (net::NodeIndex nb : overlay_.graph().neighbors(requestor)) {
    const net::NodeIndex out[1] = {nb};
    batch.push(net::EnvelopeType::kTrustRequest, requestor, out);
    batch.push(net::EnvelopeType::kTrustResponse, nb, hop);
  }
  transport_.send_batch(batch);

  record.estimate = global_trust(provider);
  record.truth_value = truth_.true_trust(provider);
  record.trust_messages = transport_.envelopes().total_hop_messages() - before;

  // Transact, then file the opinion the requestor *claims* — recruited
  // ring members / front peers falsify through reported_outcome.
  const double outcome = truth_.transaction_outcome(provider);
  const double honest =
      truth_.poor_evaluator(requestor) ? 1.0 - outcome : outcome;
  const double opinion = truth_.reported_outcome(requestor, provider, honest);
  const std::size_t n = global_.size();
  opinion_sum_[requestor * n + provider] += opinion;
  opinion_cnt_[requestor * n + provider] += 1;
  dirty_ = true;
  return record;
}

double AbsoluteTrustSystem::global_trust(net::NodeIndex v) {
  if (dirty_) recompute();
  return global_.at(v);
}

void AbsoluteTrustSystem::recompute() {
  dirty_ = false;
  const std::size_t n = global_.size();
  std::vector<double> next(n, 0.5);
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double num = 0.0;
      double den = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const std::uint32_t cnt = opinion_cnt_[j * n + i];
        if (cnt == 0) continue;
        const double t_ij =
            opinion_sum_[j * n + i] / static_cast<double>(cnt);
        const double w_j = std::max(global_[j], options_.min_weight);
        num += t_ij * w_j;
        den += w_j;
      }
      // Unrated peers keep the neutral prior; rated peers damp toward the
      // weighted opinion (warm-started from the previous fixed point).
      next[i] = den > 0.0 ? 0.5 * global_[i] + 0.5 * (num / den) : global_[i];
      delta = std::max(delta, std::abs(next[i] - global_[i]));
    }
    global_.swap(next);
    if (delta < options_.epsilon) break;
  }
}

void AbsoluteTrustSystem::reset_reputation(net::NodeIndex v) {
  const std::size_t n = global_.size();
  for (std::size_t j = 0; j < n; ++j) {
    opinion_sum_[j * n + v] = 0.0;
    opinion_cnt_[j * n + v] = 0;
    opinion_sum_[v * n + j] = 0.0;
    opinion_cnt_[v * n + j] = 0;
  }
  global_[v] = 0.5;
  dirty_ = true;
}

net::NodeIndex AbsoluteTrustSystem::add_node(std::size_t degree) {
  const std::size_t n = global_.size();
  const net::NodeIndex v = join(degree);
  grow_square(opinion_sum_, n);
  grow_square(opinion_cnt_, n);
  global_.push_back(0.5);
  dirty_ = true;
  return v;
}

}  // namespace hirep::baselines
