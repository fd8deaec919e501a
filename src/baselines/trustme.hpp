// TrustMe baseline [Singh & Liu, P2P'03] as characterized in the paper's
// related-work section (§2): trust values are stored remotely at
// *trust-holding agents* (THAs) that the bootstrap server assigns randomly
// — not chosen by the peer — and the protocol broadcasts twice:
//
//   * a requestor broadcasts the trust query to the entire system; the
//     THAs of the candidate reply;
//   * after a transaction, the peer broadcasts the result to the entire
//     system so the partner's THAs can store it.
//
// Included to quantify the paper's qualitative claim that TrustMe is "not
// a hierarchical system" and keeps flooding in the loop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/record.hpp"
#include "net/flood.hpp"
#include "trust/trust_model.hpp"
#include "trust/world.hpp"

namespace hirep::baselines {

struct TrustMeOptions : trust::WorldOptions {
  std::uint32_t ttl = 4;
  std::size_t thas_per_peer = 4;  ///< THAs assigned at bootstrap
  std::string model = "ewma";
};

class TrustMeSystem : public trust::World {
 public:
  explicit TrustMeSystem(TrustMeOptions options);

  const TrustMeOptions& options() const noexcept { return options_; }
  const std::vector<net::NodeIndex>& thas_of(net::NodeIndex peer) const;

  /// One query between random_pair() peers; `responses` counts the THA
  /// answers that reached the requestor.
  TransactionRecord run_transaction();
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

  /// Whitewash surface: drop every THA-stored model about v — a shed
  /// identity's history disappears from its trust-holding agents.
  void reset_reputation(net::NodeIndex v);

 private:
  /// What a THA answers about its subject: its stored model value, or its
  /// own (possibly malicious) evaluation before any report arrived.
  double tha_answer(net::NodeIndex tha, net::NodeIndex subject);

  TrustMeOptions options_;
  std::vector<std::vector<net::NodeIndex>> thas_;  // per peer
  // THA-side stores: (tha, subject) -> model
  std::map<std::pair<net::NodeIndex, net::NodeIndex>,
           std::unique_ptr<trust::TrustModel>>
      stores_;
  trust::TrustModelFactory model_factory_;
};

}  // namespace hirep::baselines
