#include "sim/params.hpp"

#include "sim/scenario.hpp"

namespace hirep::sim {

Params Params::from_config(const util::Config& c) {
  return Scenario::from_config(c).params();
}

net::DeliveryConfig Params::delivery_config() const {
  net::DeliveryConfig config;
  config.policy = *net::policy_kind_by_name(delivery);
  config.faults.drop_rate = drop_rate;
  config.faults.duplicate_rate = duplicate_rate;
  config.faults.delay_min_ms = fault_delay_min_ms;
  config.faults.delay_max_ms = fault_delay_max_ms;
  return config;
}

trust::WorldOptions Params::world_options() const {
  trust::WorldOptions o;
  o.nodes = network_size;
  o.average_degree = neighbors_per_node;
  o.world.trustable_ratio = trustable_ratio;
  o.world.agent_capable_ratio = agent_capable_ratio;
  o.world.malicious_ratio = malicious_ratio;
  o.world.good_rating_lo = good_rating_lo;
  o.world.good_rating_hi = good_rating_hi;
  o.world.bad_rating_lo = bad_rating_lo;
  o.world.bad_rating_hi = bad_rating_hi;
  o.latency.link_min_ms = link_min_ms;
  o.latency.link_max_ms = link_max_ms;
  o.latency.processing_ms = processing_ms;
  o.delivery = delivery_config();
  o.seed = seed;
  return o;
}

core::HirepOptions Params::hirep_options() const {
  core::HirepOptions o;
  static_cast<trust::WorldOptions&>(o) = world_options();
  o.rsa_bits = rsa_bits;
  o.trusted_agents = trusted_agents;
  o.onion_relays = relays_per_onion;
  o.discovery_tokens = tokens;
  o.discovery_ttl = discovery_ttl;
  o.expertise_alpha = expertise_alpha;
  o.eviction_threshold = eviction_threshold;
  o.agent_model = agent_model;
  o.crypto = crypto_mode == "full" ? core::CryptoMode::kFull
                                   : core::CryptoMode::kFast;
  o.reliable.max_attempts = retry_max_attempts;
  o.reliable.timeout_ms = retry_timeout_ms;
  o.reliable.backoff_ms = retry_backoff_ms;
  o.reliable.jitter_ms = retry_jitter_ms;
  o.recovery.suspicion_threshold = suspicion_threshold;
  o.recovery.min_quorum = min_quorum;
  return o;
}

baselines::VotingOptions Params::voting_options() const {
  baselines::VotingOptions o{world_options()};
  o.ttl = voting_ttl;
  return o;
}

baselines::TrustMeOptions Params::trustme_options() const {
  baselines::TrustMeOptions o{world_options()};
  o.ttl = voting_ttl;
  o.model = agent_model;
  return o;
}

util::Table Params::table1() const {
  util::Table t({"name", "value", "provenance", "description"});
  auto row = [&t](const std::string& name, util::Table::Cell value,
                  const std::string& prov, const std::string& desc) {
    t.add_row({name, std::move(value), prov, desc});
  };
  row("Network Size", static_cast<std::int64_t>(network_size), "inferred",
      "Number of peers in the network");
  row("neighbors per node", neighbors_per_node, "inferred (Fig5 sweeps 2/3/4)",
      "Average number of neighbors each peer");
  row("Good rating", "0.6-1.0", "stated", "Scope of good reputation rating");
  row("Bad rating", "0.0-0.4", "stated", "Scope of bad reputation rating");
  row("Relays in an onion", static_cast<std::int64_t>(relays_per_onion),
      "inferred (Fig8 sweeps 5/7/10)", "Agencies a peer includes in its onion");
  row("Trusted agents", static_cast<std::int64_t>(trusted_agents),
      "inferred", "Trusted agents on a peer's trusted agent list");
  row("Poor performance agents", malicious_ratio, "stated (10%)",
      "Agents which cannot make proper reputation of peers");
  row("TTL", static_cast<std::int64_t>(voting_ttl), "stated (4)",
      "TTL limit used in pure voting flooding process");
  row("Token number", static_cast<std::int64_t>(tokens), "stated (10)",
      "Initial number of tokens for obtaining reputation agent lists");
  row("trustable ratio", trustable_ratio, "stated 'randomly assigned'",
      "Fraction of peers whose true trust value is 1");
  row("agent-capable ratio", agent_capable_ratio, "inferred",
      "Fraction of peers with bandwidth > 64 kbit/s");
  row("expertise alpha", expertise_alpha, "inferred (alpha in (0,1))",
      "EWMA weight in the agent-expertise update");
  row("eviction threshold", eviction_threshold,
      "Fig6: hirep-4/6/8 = 0.4/0.6/0.8", "Expertise below this evicts an agent");
  row("discovery TTL", static_cast<std::int64_t>(discovery_ttl),
      "stated (recommend 7)", "TTL of the trusted-agent-list request");
  return t;
}

}  // namespace hirep::sim
