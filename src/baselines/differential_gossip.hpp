// Differential-gossip baseline — reputation aggregation by push-sum gossip
// in the style of Gupta & Somani (arXiv:1210.4301): opinions about a
// subject circulate as (value, weight) mass pairs; each gossip step a
// holder keeps half its mass and pushes half to a random neighbor, and any
// node's local estimate is value/weight of the mass it currently holds.
// "Differential" refers to gossiping only where mass (i.e. new opinion
// evidence) actually sits, instead of flooding the whole network each
// round.
//
// Comparator role: a *decentralized, unauthenticated* aggregate.  Cheap in
// messages and naturally convergent, but opinions are anonymous mass — a
// bad-mouthing clique's falsified mass mixes in unweighted, and a
// whitewashed identity starts from zero mass (the neutral prior).
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/record.hpp"
#include "trust/world.hpp"

namespace hirep::baselines {

struct DifferentialGossipOptions : trust::WorldOptions {
  std::size_t gossip_rounds = 3;  ///< push-sum rounds run after each opinion
};

class DifferentialGossipSystem : public trust::World {
 public:
  explicit DifferentialGossipSystem(DifferentialGossipOptions options);

  const DifferentialGossipOptions& options() const noexcept {
    return options_;
  }
  std::size_t node_count() const noexcept { return nodes_; }

  /// One transaction: the requestor reads its current push-sum estimate of
  /// the provider (the record's estimate), transacts, injects its (possibly
  /// falsified) opinion as fresh mass, and the network runs `gossip_rounds`
  /// differential rounds for that subject (the counted message cost).
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// `node`'s local estimate of `subject`: value/weight of held mass, or
  /// the neutral prior when it holds none.
  double estimate_at(net::NodeIndex node, net::NodeIndex subject) const;

  /// Whitewash surface: drop every circulating mass pair about v — a shed
  /// identity's history evaporates and estimates fall back to the prior.
  void reset_reputation(net::NodeIndex v);

  /// Sybil surface: a fresh identity joining at `degree` random points.
  net::NodeIndex add_node(std::size_t degree);

 private:
  /// One differential push-sum round for `subject`; lost pushes lose their
  /// mass (the realism the transport's delivery policy provides).
  void gossip_round(net::NodeIndex subject);

  DifferentialGossipOptions options_;
  std::size_t nodes_;
  /// Dense mass matrices: value_[holder * n + subject] / weight_[...].
  std::vector<double> value_;
  std::vector<double> weight_;
};

}  // namespace hirep::baselines
