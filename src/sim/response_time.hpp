// Figure 8 — cumulative response time of the trust-value request process:
// the time from a peer sending the request until it holds the trust value.
//
// Voting: a timed TTL flood, votes returned hop-by-hop along the BFS tree,
// response complete when the requestor has handled the LAST vote (it needs
// all of them to aggregate).  hiREP: requests leave in parallel through the
// agents' onions; the response is complete when the slowest agent's answer
// has returned through the requestor's reply onion.  Both run on the same
// queueing model (per-link propagation + serial per-message processing).
#pragma once

#include "hirep/system.hpp"
#include "sim/experiment.hpp"
#include "sim/params.hpp"

namespace hirep::sim {

/// One hiREP trust query's response time (ms), measured from a quiet
/// network on the overlay's queueing model.  Sends no envelope, so the
/// system's traffic ledger is unchanged.
double hirep_query_response_ms(core::HirepSystem& system,
                               net::NodeIndex requestor,
                               net::NodeIndex subject);

/// Figure 8 table: cumulative response time vs transactions; series
/// voting, hirep-10, hirep-7, hirep-5 (relays per onion).  `execution`
/// selects how average_over_seeds schedules repetitions; kParallel is
/// byte-identical to kSerial (pinned by tests/sim/experiment_test.cpp).
ExperimentResult run_fig8_response(
    const Params& params,
    SeedExecution execution = SeedExecution::kParallel);

}  // namespace hirep::sim
