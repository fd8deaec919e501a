// Absolute Trust baseline — the algebra-of-trust aggregation of Awasthi &
// Singh (arXiv:1601.01419): every peer holds direct opinions about the
// peers it has transacted with, and the network-wide ("absolute") trust of
// peer i is the fixed point of
//
//     t_i = sum_j T_ij * w_j / sum_j w_j     over the raters j of i,
//
// i.e. each rater's opinion weighted by the rater's own absolute trust —
// a peer whose community standing is low contributes little to anyone
// else's score.  We solve the fixed point with damped warm-started Jacobi
// iteration, recomputed lazily after new opinions arrive.
//
// Comparator role: a *global*, identity-keyed reputation aggregate.  It is
// robust to simple lying minorities (their weight collapses) but — unlike
// hiREP's §3.5 key-rotation protocol — a whitewashing peer that sheds its
// identity sheds its entire standing, and sybil identities join with the
// neutral prior.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/record.hpp"
#include "trust/world.hpp"

namespace hirep::baselines {

struct AbsoluteTrustOptions : trust::WorldOptions {
  std::size_t max_iterations = 50;  ///< Jacobi iteration cap per recompute
  double epsilon = 1e-6;            ///< L-inf convergence threshold
  double min_weight = 0.05;         ///< floor on a rater's weight
};

class AbsoluteTrustSystem : public trust::World {
 public:
  explicit AbsoluteTrustSystem(AbsoluteTrustOptions options);

  const AbsoluteTrustOptions& options() const noexcept { return options_; }
  std::size_t node_count() const noexcept { return global_.size(); }

  /// One transaction: the requestor exchanges trust state with its
  /// neighbors (the counted message cost), reads the provider's absolute
  /// trust (the record's estimate), transacts, and files its (possibly
  /// falsified) opinion.
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// The provider's current absolute trust (fixed point recomputed lazily).
  double global_trust(net::NodeIndex v);

  /// Whitewash surface: forget every opinion *about* and *by* v and reset
  /// its score to the prior — what shedding an identity achieves in an
  /// identity-keyed store.
  void reset_reputation(net::NodeIndex v);

  /// Sybil surface: one fresh identity joining the overlay at `degree`
  /// random attachment points, with the neutral prior.
  net::NodeIndex add_node(std::size_t degree);

 private:
  void recompute();

  AbsoluteTrustOptions options_;
  /// Dense opinion matrix: opinion_sum_[rater * n + subject] with matching
  /// counts; T_ij is the rater's running average.
  std::vector<double> opinion_sum_;
  std::vector<std::uint32_t> opinion_cnt_;
  std::vector<double> global_;  ///< the fixed point, 0.5 prior
  bool dirty_ = false;
};

}  // namespace hirep::baselines
