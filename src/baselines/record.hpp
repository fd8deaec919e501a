// The per-transaction record every baseline returns from run_transaction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/graph.hpp"

namespace hirep::baselines {

struct TransactionRecord {
  net::NodeIndex requestor = net::kInvalidNode;
  net::NodeIndex provider = net::kInvalidNode;
  double estimate = 0.5;     ///< the requestor's trust estimate beforehand
  double truth_value = 0.0;  ///< the provider's true trust (0/1)
  /// Answers that reached the tally: voting's votes, TrustMe's THA
  /// answers, 1 when the RCA replied (0 when it was down).  The
  /// aggregating baselines (Absolute Trust, differential gossip) read a
  /// stored value and leave it 0.
  std::size_t responses = 0;
  std::uint64_t trust_messages = 0;  ///< messages this transaction spent
};

}  // namespace hirep::baselines
