// Pure-voting (polling) baseline — the flooding mechanism of P2PREP
// [Cornelli et al., WWW'02] as the paper simulates it (§5.2): the trust
// requestor floods a poll with a TTL; *every* reached node computes a
// trust value of the candidate provider and returns its vote hop-by-hop
// along the reverse path; all votes are weighted equally.
//
// This is the comparator for Figures 5–8 ("voting-n" = average degree n).
#pragma once

#include <cstdint>

#include "baselines/record.hpp"
#include "net/flood.hpp"
#include "trust/world.hpp"

namespace hirep::baselines {

struct VotingOptions : trust::WorldOptions {
  std::uint32_t ttl = 4;  ///< Table 1: TTL 4 ("network size limit"); real
                          ///< Gnutella deployments use 7
};

class PureVotingSystem : public trust::World {
 public:
  explicit PureVotingSystem(VotingOptions options);

  const VotingOptions& options() const noexcept { return options_; }

  struct PollResult {
    double estimate = 0.5;
    std::size_t votes = 0;
    std::uint64_t messages = 0;  ///< poll flood + vote returns
  };
  /// Counted poll (Figures 5–7).
  PollResult poll(net::NodeIndex requestor, net::NodeIndex provider);

  struct TimedPoll {
    double estimate = 0.5;
    std::size_t votes = 0;
    /// When the requestor has handled the last vote (ms since poll start).
    double response_ms = 0.0;
  };
  /// Timed poll over the queueing model (Figure 8).  Resets per-node busy
  /// state first: each transaction is measured from a quiet network.
  TimedPoll poll_timed(net::NodeIndex requestor, net::NodeIndex provider);

  /// One poll between random_pair() peers; `responses` counts the votes.
  TransactionRecord run_transaction();
  TransactionRecord run_transaction(net::NodeIndex requestor,
                                    net::NodeIndex provider);

 private:
  VotingOptions options_;
};

}  // namespace hirep::baselines
