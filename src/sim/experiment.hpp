// Experiment runners — one per paper exhibit.  Each returns a util::Table
// whose rows/series mirror the paper's figure, plus a qualitative-claims
// check the bench binaries print as PASS/FAIL.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/params.hpp"
#include "util/table.hpp"

namespace hirep::sim {

/// A qualitative claim from the paper checked against measured data.
struct ClaimCheck {
  std::string claim;
  bool holds = false;
  std::string detail;
};

struct ExperimentResult {
  util::Table table;
  std::vector<ClaimCheck> checks;
};

/// Figure 5 — trust-query traffic (messages, cumulative) vs transactions:
/// series voting-2, voting-3, voting-4, hirep.
ExperimentResult run_fig5_traffic(const Params& params);

/// Figure 6 — windowed MSE of trust estimates vs transactions with 10%
/// malicious nodes: series voting, hirep-4, hirep-6, hirep-8 (eviction
/// thresholds 0.4/0.6/0.8).
ExperimentResult run_fig6_accuracy(const Params& params);

/// Figure 7 — MSE vs attacker ratio (0..90%): series hirep, voting.
ExperimentResult run_fig7_malicious(const Params& params);

/// §4.1 — measured trust messages per transaction vs the closed form
/// 3*c*(o+1) across sweeps of c and o (and the paper's 2c(o_i+o_j) order).
ExperimentResult run_traffic_bound(const Params& params);

/// The transaction workload every pre-drawn run shares: `count`
/// requestor/provider pairs from a dedicated (seed, salt) stream, drawn
/// from the active-community pools (Params::requestor_pool /
/// provider_pool; 0 = whole population) with provider != requestor.  The
/// figure runners and the chaos, adversary and scale exhibits feed it to
/// run_transactions() in chunks, so equal params give every run the
/// identical pair sequence.
std::vector<std::pair<net::NodeIndex, net::NodeIndex>> draw_pairs(
    const Params& p, std::size_t count);

/// How average_over_seeds schedules its repetitions.
enum class SeedExecution {
  kParallel,  ///< fan repetitions across util::ThreadPool (default)
  kSerial     ///< run repetitions in order on the calling thread
};

/// Runs `series(seed)` for params.seeds independent seeds and returns the
/// element-wise mean (all runs must return equal-length series).  Shared by
/// the figure runners.  Each repetition owns its whole simulated system, so
/// the parallel fan-out is race-free and byte-identical to kSerial (results
/// are combined in seed order either way).
std::vector<double> average_over_seeds(
    const Params& params,
    const std::function<std::vector<double>(std::uint64_t)>& series,
    SeedExecution execution = SeedExecution::kParallel);

/// Prints an ExperimentResult the standard way (table + checks).
void print_result(const ExperimentResult& result, const std::string& title);

/// True iff every check passed (bench exit codes).
bool all_hold(const ExperimentResult& result);

}  // namespace hirep::sim
