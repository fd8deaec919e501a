#include "baselines/pure_voting.hpp"

#include <algorithm>

namespace hirep::baselines {

PureVotingSystem::PureVotingSystem(VotingOptions options)
    : World(options, 0x0ddba111ULL, 0x90111e57ULL),
      options_(std::move(options)) {}

PureVotingSystem::PollResult PureVotingSystem::poll(net::NodeIndex requestor,
                                                    net::NodeIndex provider) {
  PollResult result;
  const std::uint64_t before = transport_.envelopes().total_hop_messages();
  const auto flood = net::flood(transport_, requestor, options_.ttl,
                                net::EnvelopeType::kVotePoll);
  const auto parent = flood.parents_by_node(overlay_.node_count());

  // Every vote of one poll rides back in a single envelope batch.  The
  // voter evaluates the candidate at enqueue time — the draw happens at
  // the voter, in reached order, regardless of whether its vote survives
  // the trip back — and the tally runs over the drained receipts.  All
  // returns target the requestor, so the destination-sorted drain
  // degenerates to entry order and the float sum matches the sequential
  // form bit for bit.
  auto batch = transport_.make_batch();
  std::vector<double> votes;
  std::vector<net::NodeIndex> reverse;
  for (std::size_t i = 0; i < flood.reached.size(); ++i) {
    const net::NodeIndex voter = flood.reached[i];
    if (voter == provider) continue;  // the candidate does not vote on itself
    votes.push_back(truth_.evaluate(voter, provider, rng_));
    // The vote travels back hop-by-hop along the reverse flooding path.
    reverse.clear();
    reverse.reserve(flood.depth[i]);
    for (net::NodeIndex at = voter; at != requestor;) {
      const net::NodeIndex up = parent[at];
      reverse.push_back(up);
      at = up;
    }
    batch.push(net::EnvelopeType::kVoteReturn, voter, reverse);
  }
  transport_.send_batch(batch);
  double sum = 0.0;
  // Single-destination drain (every vote lands at the requestor), so the
  // grouped visit degenerates to one group in entry order.
  batch.drain_groups(
      [](std::size_t, const net::DeliveryReceipt& r) {
        return static_cast<std::uint64_t>(r.destination);
      },
      [&](const net::ReceiptGroup& group) {
        for (const std::uint32_t i : group.entries) {
          // A lost vote never reaches the tally.
          sum += votes[i];
          ++result.votes;
        }
      });
  result.estimate = result.votes
                        ? sum / static_cast<double>(result.votes)
                        : 0.5;
  result.messages = transport_.envelopes().total_hop_messages() - before;
  return result;
}

PureVotingSystem::TimedPoll PureVotingSystem::poll_timed(
    net::NodeIndex requestor, net::NodeIndex provider) {
  TimedPoll result;
  overlay_.reset_time_state();
  const auto arrivals =
      net::timed_flood(overlay_, requestor, options_.ttl, 0.0);

  // Reconstruct reverse paths from the BFS-tree parents.
  std::vector<net::NodeIndex> parent(overlay_.node_count(), net::kInvalidNode);
  for (const auto& a : arrivals) parent[a.node] = a.parent;

  double sum = 0.0;
  double last = 0.0;
  for (const auto& a : arrivals) {
    if (a.node == provider) continue;
    sum += truth_.evaluate(a.node, provider, rng_);
    ++result.votes;
    // Vote returns hop-by-hop toward the requestor; each hop contends for
    // the receiving node's serial processing capacity.
    double t = a.time_ms;
    net::NodeIndex at = a.node;
    while (at != requestor) {
      const net::NodeIndex up = at == a.node ? a.parent : parent[at];
      t = overlay_.timed_send(t, at, up);
      at = up;
    }
    last = std::max(last, t);
  }
  result.estimate = result.votes ? sum / static_cast<double>(result.votes) : 0.5;
  result.response_ms = last;
  return result;
}

TransactionRecord PureVotingSystem::run_transaction() {
  const auto [requestor, provider] = random_pair();
  return run_transaction(requestor, provider);
}

TransactionRecord PureVotingSystem::run_transaction(net::NodeIndex requestor,
                                                    net::NodeIndex provider) {
  const auto polled = poll(requestor, provider);
  TransactionRecord record;
  record.requestor = requestor;
  record.provider = provider;
  record.estimate = polled.estimate;
  record.truth_value = truth_.true_trust(provider);
  record.responses = polled.votes;
  record.trust_messages = polled.messages;
  return record;
}

}  // namespace hirep::baselines
