// Adversary curves — trust accuracy (MSE) of hiREP vs the four baselines
// (pure voting, TrustMe, Absolute Trust, differential gossip) under every
// strategy of the sim::Adversary engine: collusive bad-mouthing ring,
// sybil floods, whitewashing, on-off oscillators, and front peers — plus
// the attack-free reference row.
//
// Every cell runs the identical pre-drawn workload; the hiREP column runs
// the ring condition a second time to prove adversarial replay is
// byte-identical (same seed + Scenario => same records, bit for bit).
// Baselines are driven through the same engine via a capability-reduced
// AdversaryHost: truth-level strategies apply everywhere, whitewashing
// degrades from §3.5 key rotation (hiREP migrates standing — the defense)
// to wiping the identity-keyed store (the attack working), and sybil
// waves degrade to corrupted evaluators where there is no open membership.
//
//   ./build/bench/adversary_curves network_size=200 transactions=400
//       crypto=fast json=out.json
//   fake_clock=1 pins the obs timers to a counter so two identical runs
//   write byte-identical json documents (the CI adversary-smoke check).
#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/absolute_trust.hpp"
#include "baselines/differential_gossip.hpp"
#include "baselines/pure_voting.hpp"
#include "baselines/trustme.hpp"
#include "bench_common.hpp"
#include "hirep/system.hpp"
#include "sim/adversary.hpp"
#include "util/stats.hpp"

namespace {

using namespace hirep;

/// One strategy condition: the adversary_* knob overrides it applies.
struct Strategy {
  const char* name;
  void (*arm)(sim::Params& p);
};

const Strategy kStrategies[] = {
    {"none", [](sim::Params&) {}},
    {"ring",
     [](sim::Params& p) {
       p.adversary_ring_size = p.network_size / 10;
       p.adversary_ring_targets = 6;
     }},
    {"sybil",
     [](sim::Params& p) {
       p.adversary_sybil_count = 8;
       p.adversary_sybil_at = p.transactions / 4;
       p.adversary_sybil_period = p.transactions / 4;
       p.adversary_sybil_corrupt = 2;
     }},
    {"whitewash",
     [](sim::Params& p) {
       p.adversary_whitewash_count = 20;
       p.adversary_whitewash_threshold = 0.35;
       p.adversary_whitewash_cooldown =
           std::max<std::size_t>(1, p.transactions / 16);
     }},
    {"oscillator",
     [](sim::Params& p) {
       p.adversary_oscillator_count = 10;
       p.adversary_oscillator_on = 0.7;
       p.adversary_oscillator_burst = p.transactions / 8;
     }},
    {"front",
     [](sim::Params& p) {
       p.adversary_front_count = p.requestor_pool
                                     ? p.requestor_pool / 4
                                     : p.network_size / 10;
     }},
};

/// Capability-reduced host over a baseline system.  Whitewashing wipes the
/// identity-keyed store (where one exists); sybil identities join the
/// overlay where membership is open, else degrade to corrupted evaluators.
template <typename System>
class BaselineHost final : public sim::AdversaryHost {
 public:
  explicit BaselineHost(System* system) : system_(system) {}
  trust::GroundTruth& truth() override { return system_->truth(); }
  std::size_t node_count() const override {
    return system_->truth().node_count();
  }
  std::optional<net::NodeIndex> spawn_identity() override {
    if constexpr (requires(System& s) { s.add_node(std::size_t{4}); }) {
      return system_->add_node(4);
    } else {
      return std::nullopt;
    }
  }
  void reset_reputation(net::NodeIndex v) override {
    if constexpr (requires(System& s) { s.reset_reputation(v); }) {
      system_->reset_reputation(v);
    }
  }

 private:
  System* system_;
};

struct CellResult {
  double mse = 0.0;
  /// MSE restricted to transactions whose provider is a whitewasher —
  /// overall MSE barely moves (whitewashed providers are a small slice of
  /// the workload), so the immunity claim measures the attacked peers
  /// directly.
  double wash_mse = 0.0;
  sim::Adversary::Counters counters;
  /// Bit pattern of every record, for the replay-identity claim.
  std::vector<std::uint64_t> fingerprint;
};

/// Per-cell accumulation state.
struct CellAccum {
  util::MseAccumulator all;
  util::MseAccumulator washed;
  std::vector<std::uint8_t> is_washer;  ///< indexed by provider

  explicit CellAccum(const std::shared_ptr<sim::Adversary>& adversary,
                     std::size_t nodes)
      : is_washer(nodes, 0) {
    if (!adversary) return;
    for (net::NodeIndex v : adversary->whitewashers()) is_washer[v] = 1;
  }

  template <typename Record>
  void note(const Record& rec, std::size_t index, std::size_t train,
            CellResult& out) {
    if (index >= train) {
      all.add(rec.estimate, rec.truth_value);
      if (rec.provider < is_washer.size() && is_washer[rec.provider]) {
        washed.add(rec.estimate, rec.truth_value);
      }
    }
    out.fingerprint.push_back(std::bit_cast<std::uint64_t>(rec.estimate));
    out.fingerprint.push_back(std::bit_cast<std::uint64_t>(rec.truth_value));
    out.fingerprint.push_back(rec.trust_messages);
  }

  void finish(CellResult& out) {
    out.mse = all.mse();
    out.wash_mse = washed.mse();
  }
};

/// hiREP cell: batched engine pipeline, full-capability host.
CellResult run_hirep(const sim::Params& p, std::size_t train) {
  core::HirepSystem system(p.hirep_options());
  const auto adversary = sim::install_adversary(system, p);
  const auto exec = sim::Scenario(p).execution_policy();
  const auto pairs = sim::draw_pairs(p, p.transactions);
  CellResult out;
  CellAccum acc(adversary, system.node_count());
  constexpr std::size_t kChunk = 25;
  std::size_t done = 0;
  while (done < pairs.size()) {
    const std::size_t next = std::min(done + kChunk, pairs.size());
    const auto records = system.run_transactions(
        std::span(pairs).subspan(done, next - done), exec);
    for (std::size_t i = 0; i < records.size(); ++i) {
      acc.note(records[i], done + i, train, out);
    }
    done = next;
    if (adversary) {
      adversary->observe_records(records);
      adversary->advance_to(done);
    }
  }
  acc.finish(out);
  if (adversary) out.counters = adversary->counters();
  return out;
}

/// Baseline cell: serial transactions, engine driven per tick through the
/// capability-reduced host.
template <typename System, typename Options>
CellResult run_baseline(const sim::Params& p, std::size_t train,
                        Options options) {
  System system(std::move(options));
  std::shared_ptr<sim::Adversary> adversary;
  if (p.adversary == "on") {
    adversary = std::make_shared<sim::Adversary>(
        std::make_unique<BaselineHost<System>>(&system),
        sim::adversary_params_from(p), p.seed);
  }
  const auto pairs = sim::draw_pairs(p, p.transactions);
  CellResult out;
  CellAccum acc(adversary, system.truth().node_count());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto rec = system.run_transaction(pairs[i].first, pairs[i].second);
    acc.note(rec, i, train, out);
    if (adversary) {
      adversary->observe(rec.provider, rec.estimate);
      adversary->advance_to(i + 1);
    }
  }
  acc.finish(out);
  if (adversary) out.counters = adversary->counters();
  return out;
}

std::string fmt(double v) {
  std::string s = std::to_string(v);
  return s.substr(0, s.find('.') + 5);
}

}  // namespace

int main(int argc, char** argv) {
  // Deterministic obs clock (fake_clock=1), installed before run_exhibit
  // so every harness timer sees the same clock from its first reading.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "fake_clock=1") {
      obs::set_clock_for_testing(+[]() -> std::uint64_t {
        static std::uint64_t fake_ns = 0;
        return fake_ns += 1'000'000;
      });
    }
  }
  return bench::run_exhibit(
      argc, argv,
      "Adversary curves — trust accuracy under collusion / sybil / "
      "whitewash / oscillator / front campaigns, hiREP vs four baselines",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(200);
        if (!cfg.has("transactions")) sc.transactions(400);
        sim::Params& p = sc.params();
        if (!cfg.has("adversary")) p.adversary = "on";
        // Consumed in main(); read here only so the unused-parameter scan
        // and the json config echo see the key.
        (void)cfg.get_int("fake_clock", 0);
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& base = sc.params();
        const std::size_t train = base.transactions / 2;

        util::Table table({"strategy", "hirep", "voting", "trustme",
                           "abs_trust", "diff_gossip"});
        std::vector<CellResult> hirep_cells, abs_cells, gossip_cells;
        std::vector<double> voting_mse, trustme_mse;
        CellResult ring_replay;

        for (const Strategy& s : kStrategies) {
          sim::Params p = base;
          s.arm(p);
          const CellResult h = run_hirep(p, train);
          const CellResult v =
              run_baseline<baselines::PureVotingSystem>(p, train,
                                                        p.voting_options());
          const CellResult t =
              run_baseline<baselines::TrustMeSystem>(p, train,
                                                     p.trustme_options());
          const CellResult a =
              run_baseline<baselines::AbsoluteTrustSystem>(
                  p, train, baselines::AbsoluteTrustOptions{p.world_options()});
          const CellResult g =
              run_baseline<baselines::DifferentialGossipSystem>(
                  p, train,
                  baselines::DifferentialGossipOptions{p.world_options()});
          table.add_row({s.name, h.mse, v.mse, t.mse, a.mse, g.mse});
          hirep_cells.push_back(h);
          voting_mse.push_back(v.mse);
          trustme_mse.push_back(t.mse);
          abs_cells.push_back(a);
          gossip_cells.push_back(g);
          if (std::string_view(s.name) == "ring") {
            ring_replay = run_hirep(p, train);
          }
        }

        sim::ExperimentResult result{std::move(table), {}};
        // Index map follows kStrategies: 0 none, 1 ring, 2 sybil,
        // 3 whitewash, 4 oscillator, 5 front.
        const auto& c_ring = hirep_cells[1].counters;
        const auto& c_sybil = hirep_cells[2].counters;
        const auto& c_wash = hirep_cells[3].counters;
        const auto& c_osc = hirep_cells[4].counters;
        const auto& c_front = hirep_cells[5].counters;
        result.checks.push_back(
            {"every strategy fired against hiREP (engine counters)",
             c_ring.ring_recruits > 0 && c_ring.ring_targets_marked > 0 &&
                 c_sybil.sybil_joins > 0 &&
                 c_sybil.sybil_agent_corruptions > 0 &&
                 c_wash.whitewash_rotations > 0 &&
                 c_osc.oscillator_defections > 0 &&
                 c_front.front_recruits > 0,
             "ring=" + std::to_string(c_ring.ring_recruits) +
                 " sybil=" + std::to_string(c_sybil.sybil_joins) +
                 " wash=" + std::to_string(c_wash.whitewash_rotations) +
                 " osc=" + std::to_string(c_osc.oscillator_defections) +
                 " front=" + std::to_string(c_front.front_recruits)});
        result.checks.push_back(
            {"adversarial replay is deterministic: byte-identical records "
             "(ring strategy, two runs)",
             hirep_cells[1].fingerprint == ring_replay.fingerprint, ""});
        double hirep_max = 0.0;
        for (std::size_t i = 1; i < hirep_cells.size(); ++i) {
          hirep_max = std::max(hirep_max, hirep_cells[i].mse);
        }
        result.checks.push_back(
            {"hiREP stays accurate under every campaign (MSE < 0.15)",
             hirep_max < 0.15, "worst=" + fmt(hirep_max)});
        // Whitewash asymmetry, measured on the attacked peers themselves:
        // hiREP's §3.5 rotation migrates standing (rotations fire, tracking
        // holds), while the identity-keyed baselines actually reset and
        // relapse toward the neutral prior on every shed identity.
        const double hirep_wash = hirep_cells[3].wash_mse;
        const double abs_wash = abs_cells[3].wash_mse;
        const double gossip_wash = gossip_cells[3].wash_mse;
        result.checks.push_back(
            {"whitewash immunity: hiREP keeps tracking whitewashed peers "
             "(§3.5 rotations) while identity-keyed baselines relapse",
             hirep_cells[3].counters.whitewash_rotations > 0 &&
                 abs_cells[3].counters.whitewash_resets > 0 &&
                 hirep_wash < abs_wash && hirep_wash < gossip_wash,
             "hirep=" + fmt(hirep_wash) + " abs_trust=" + fmt(abs_wash) +
                 " diff_gossip=" + fmt(gossip_wash) + " rotations=" +
                 std::to_string(
                     hirep_cells[3].counters.whitewash_rotations) +
                 " resets=" +
                 std::to_string(abs_cells[3].counters.whitewash_resets)});
        // Overall comparison: under every campaign hiREP beats the
        // flooding comparator the paper plots (pure voting).
        bool beats_voting = true;
        for (std::size_t i = 0; i < hirep_cells.size(); ++i) {
          if (hirep_cells[i].mse >= voting_mse[i]) beats_voting = false;
        }
        result.checks.push_back(
            {"hiREP beats pure voting under every campaign", beats_voting,
             ""});
        (void)trustme_mse;
        return result;
      });
}
