// Table-1 simulation parameters, their provenance, and conversion into the
// per-system option structs.  Every bench binary builds its configuration
// through here so `key=value` CLI overrides behave identically everywhere.
//
// Provenance: the available text of the paper has a partially garbled
// Table 1 (the value column reads "60 10% 4 10").  Values marked
// (inferred) below are reconstructed from the prose and the figures; all
// are overridable.
#pragma once

#include <cstdint>
#include <string>

#include "baselines/pure_voting.hpp"
#include "baselines/trustme.hpp"
#include "hirep/system.hpp"
#include "trust/world.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace hirep::sim {

struct Params {
  // ---- Table 1 -------------------------------------------------------
  std::size_t network_size = 1000;   ///< Network Size (inferred)
  double neighbors_per_node = 4.0;   ///< avg neighbors (inferred; Fig5 sweeps 2/3/4)
  double good_rating_lo = 0.6;       ///< Good rating: 0.6–1 (stated)
  double good_rating_hi = 1.0;
  double bad_rating_lo = 0.0;        ///< Bad rating: 0–0.4 (stated)
  double bad_rating_hi = 0.4;
  std::size_t relays_per_onion = 5;  ///< Fig8 sweeps 5/7/10 (inferred default 5)
  std::size_t trusted_agents = 10;   ///< c (inferred from token number 10)
  double malicious_ratio = 0.10;     ///< Poor performance agents: 10% (stated)
  std::uint32_t voting_ttl = 4;      ///< TTL 4 in the polling sim (stated)
  std::uint32_t tokens = 10;         ///< Token number 10 (stated)

  // ---- beyond Table 1 (documented inferences / engineering knobs) ----
  double trustable_ratio = 0.5;      ///< nodes "randomly assigned" (stated)
  double agent_capable_ratio = 0.4;  ///< fraction with bandwidth > 64k (inferred)
  double expertise_alpha = 0.3;      ///< alpha in (0,1), unspecified
  double eviction_threshold = 0.4;   ///< hirep-4 default (Fig6 sweeps .4/.6/.8)
  std::uint32_t discovery_ttl = 7;   ///< §3.4.1 recommends 7
  unsigned rsa_bits = 64;            ///< simulation default; tests use >= 128
  std::string crypto_mode = "fast";  ///< "fast" | "full"
  std::string agent_model = "ewma";
  std::string delivery = "instant";  ///< "instant" | "latency" | "faulty"
  double drop_rate = 0.0;            ///< faulty: per-hop loss probability
  double duplicate_rate = 0.0;       ///< faulty: per-hop duplication probability
  double fault_delay_min_ms = 0.0;   ///< faulty: extra per-hop delay range
  double fault_delay_max_ms = 0.0;
  double link_min_ms = 10.0;
  double link_max_ms = 40.0;
  double processing_ms = 1.0;
  std::uint64_t seed = 1;
  std::size_t seeds = 1;             ///< independent repetitions to average
  std::size_t transactions = 200;    ///< default horizon (figures override)
  std::size_t mse_window = 50;       ///< sliding window for MSE-vs-time curves
  /// Active-community workload: requestors (resp. providers) are drawn from
  /// a pool of this many peers, so each active peer accumulates enough
  /// transactions for its expertise filtering to engage at the paper's
  /// transaction counts.  0 = whole population.
  std::size_t requestor_pool = 50;
  std::size_t provider_pool = 100;
  /// Scale engine: how run_transactions() executes a batch ("parallel" |
  /// "serial"; results are byte-identical, see sim::Scenario).
  std::string execution = "parallel";
  std::size_t threads = 0;  ///< worker threads, 0 = hardware concurrency
  std::size_t wave_window = 0;  ///< max transactions per wave, 0 = unbounded

  // ---- reliable request channel (src/net/reliable.hpp) ----------------
  // Defaults are the golden-safe zero-retry configuration: one attempt, no
  // deadline, no backoff — call-for-call identical to a bare send.
  std::uint32_t retry_max_attempts = 1;  ///< attempts per request (1 = no retry)
  double retry_timeout_ms = 0.0;         ///< reply deadline (0 = none)
  double retry_backoff_ms = 0.0;         ///< exponential-backoff base
  double retry_jitter_ms = 0.0;          ///< seeded jitter added to each backoff

  // ---- agent failover / recovery (§3.4.3 + graceful degradation) ------
  std::uint32_t suspicion_threshold = 3; ///< consecutive timeouts to quarantine
  std::size_t min_quorum = 0;            ///< live-agent quorum (0 = no degradation)

  // ---- chaos engine (src/sim/chaos.hpp) --------------------------------
  // All schedule times are transaction ticks; 0 means "never" for the
  // *_at knobs.  chaos=off compiles everything out of the run entirely.
  std::string chaos = "off";             ///< "off" | "on"
  std::uint64_t chaos_seed = 0;          ///< 0 = derive from the master seed
  double chaos_crash_rate = 0.0;         ///< per-node per-tick crash probability
  double chaos_mean_downtime = 20.0;     ///< mean ticks a crashed node stays down
  std::size_t chaos_crash_at = 0;        ///< scripted mass-crash tick (0 = never)
  std::size_t chaos_restart_at = 0;      ///< scripted mass-restart tick (0 = never)
  double chaos_agent_crash_fraction = 0.0;  ///< agents crashed at chaos_crash_at
  std::size_t chaos_partition_at = 0;    ///< group partition start tick (0 = never)
  std::size_t chaos_heal_at = 0;         ///< partition heal tick (0 = never)
  double chaos_partition_fraction = 0.0; ///< nodes severed onto the minority side
  std::size_t chaos_burst_at = 0;        ///< burst-loss window start tick (0 = never)
  std::size_t chaos_burst_until = 0;     ///< burst-loss window end tick
  double chaos_burst_drop = 0.0;         ///< per-hop drop probability in the window
  double chaos_slowdown_fraction = 0.0;  ///< fraction of nodes slowed down
  double chaos_slowdown_ms = 0.0;        ///< extra per-hop delay for slowed nodes

  // ---- adversary strategy engine (src/sim/adversary.hpp) ---------------
  // Tick-scheduled attack campaigns; a strategy is armed by its count knob
  // and fires at its *_at tick (0 = at install, before the first
  // transaction).  adversary=off keeps every knob inert: install_adversary
  // returns nullptr and the run is bit-identical to a build without the
  // engine.  The static Figure-7 strategy is malicious_ratio itself,
  // applied at world bootstrap — the engine performs no runtime action
  // for it.
  std::string adversary = "off";           ///< "off" | "on"
  std::uint64_t adversary_seed = 0;        ///< 0 = derive from the master seed
  std::size_t adversary_ring_size = 0;     ///< collusion-ring members (0 = off)
  std::size_t adversary_ring_at = 0;       ///< ring formation tick (0 = install)
  std::size_t adversary_ring_targets = 4;  ///< good providers bad-mouthed
  std::size_t adversary_sybil_count = 0;   ///< fresh identities per wave (0 = off)
  std::size_t adversary_sybil_at = 0;      ///< first wave tick (0 = install)
  std::size_t adversary_sybil_period = 0;  ///< ticks between waves (0 = one wave)
  std::size_t adversary_sybil_corrupt = 0; ///< fringe agents corrupted per wave
  std::size_t adversary_whitewash_count = 0;    ///< tracked whitewashers (0 = off)
  double adversary_whitewash_threshold = 0.3;   ///< rotate below this estimate
  std::size_t adversary_whitewash_cooldown = 10;///< min ticks between rotations
  std::size_t adversary_oscillator_count = 0;   ///< on-off peers (0 = off)
  double adversary_oscillator_on = 0.7;    ///< defect once estimate >= this
  std::size_t adversary_oscillator_burst = 5;   ///< defection burst (ticks)
  std::size_t adversary_front_count = 0;   ///< front peers recruited (0 = off)
  std::size_t adversary_front_at = 0;      ///< front recruitment tick (0 = install)

  /// Applies key=value overrides (keys match the field names above).
  /// Thin back-compat wrapper over sim::Scenario::from_config — new code
  /// should build a Scenario (table-driven parsing + whole-config
  /// validation) and use its projections.
  static Params from_config(const util::Config& config);

  /// The world every architecture is built on: network size, degree,
  /// ground-truth ratios and rating scopes, latency, delivery and seed.
  /// The projections below start from it; Absolute Trust, differential
  /// gossip and the RCA take it as is (e.g. `RcaOptions{world_options()}`).
  trust::WorldOptions world_options() const;
  core::HirepOptions hirep_options() const;
  baselines::VotingOptions voting_options() const;
  baselines::TrustMeOptions trustme_options() const;
  /// The delivery policy every system above is built with.
  net::DeliveryConfig delivery_config() const;

  /// The Table-1 reproduction: name, value, provenance rows.
  util::Table table1() const;
};

}  // namespace hirep::sim
