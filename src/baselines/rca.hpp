// Centralized baseline — Gupta et al. [NOSSDAV'03]: a dedicated
// *reputation computation agent* (RCA) stores every peer's reputation.
// Queries and reports are point-to-point with the RCA, so per-transaction
// traffic is O(1) — but the RCA is a traffic bottleneck (every message in
// the system funnels through one node's serial queue) and a single point
// of failure, which is exactly the §3.1 argument for hiREP's hierarchy.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "baselines/record.hpp"
#include "trust/trust_model.hpp"
#include "trust/world.hpp"

namespace hirep::baselines {

struct RcaOptions : trust::WorldOptions {
  net::NodeIndex rca_node = 0;  ///< the dedicated server's overlay seat
  std::string model = "ewma";
};

class RcaSystem : public trust::World {
 public:
  explicit RcaSystem(RcaOptions options);

  const RcaOptions& options() const noexcept { return options_; }

  bool rca_online() const noexcept { return online_; }
  /// The single point of failure, made explicit.
  void set_rca_online(bool online) noexcept { online_ = online; }

  /// One query between random_pair() peers.  The request, the response
  /// and the report are one-hop envelopes between the peer and the RCA,
  /// under the world's delivery policy; `responses` is 1 when the reply
  /// reached the requestor, and 0 when the RCA was down or a message was
  /// lost.  A lost report is not stored.
  TransactionRecord run_transaction();
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// Timed query response (ms) under the queueing model; every concurrent
  /// requestor contends for the RCA's serial processing — the bottleneck.
  /// `concurrent` simultaneous queries are issued; returns the LAST
  /// completion.  Sends no envelope.
  double timed_query_burst_ms(std::size_t concurrent);

  std::size_t reports_stored() const noexcept { return stores_.size(); }

 private:
  RcaOptions options_;
  bool online_ = true;
  std::map<net::NodeIndex, std::unique_ptr<trust::TrustModel>> stores_;
  trust::TrustModelFactory model_factory_;
};

}  // namespace hirep::baselines
