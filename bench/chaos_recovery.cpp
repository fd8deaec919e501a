// Chaos recovery — accuracy dip and reconvergence under a deterministic
// fault schedule: a scripted mass-crash of reputation agents (restarted
// later) followed by a group partition (healed later), with the reliable
// request channel retrying and the community quarantining unresponsive
// agents (DESIGN.md §10).
//
// The same pre-drawn workload runs twice — once fault-free, once under the
// chaos schedule — and the chaotic run repeats a third time to prove the
// replay is byte-identical (same seed + schedule => same records, bit for
// bit).  Failover and retry counters land in the obs registry (and thus
// the json= document) under hirep.recovery.*, net.reliable.*, sim.chaos.*.
//
//   ./build/bench/chaos_recovery network_size=200 transactions=240
//       crypto=fast json=out.json
//   fake_clock=1 pins the obs timers to a counter so two identical runs
//   write byte-identical json documents (the CI chaos-smoke check).
#include <algorithm>
#include <bit>
#include <span>
#include <string_view>
#include <string>

#include "bench_common.hpp"
#include "hirep/system.hpp"
#include "sim/chaos.hpp"
#include "sim/windowed_mse.hpp"

namespace {

using namespace hirep;

struct RunResult {
  std::vector<core::HirepSystem::TransactionRecord> records;
  std::vector<double> mse;  ///< windowed MSE after every transaction
  core::HirepSystem::RecoveryCounters recovery;
  net::ReliableChannel::Stats reliable;
  sim::ChaosEngine::Counters chaos;  ///< zeroes when chaos=off
};

/// One full run: transaction-granular batches so the chaos tick advances
/// once per completed transaction (the finest replayable schedule).
RunResult run_once(const sim::Params& p) {
  core::HirepSystem system(p.hirep_options());
  const auto chaos = sim::install_chaos(system, p);
  const auto exec = sim::Scenario(p).execution_policy();
  const auto pairs = sim::draw_pairs(p, p.transactions);

  RunResult out;
  out.records.reserve(pairs.size());
  sim::WindowedMse window(p.mse_window);
  const std::span<const std::pair<net::NodeIndex, net::NodeIndex>> all(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto recs = system.run_transactions(all.subspan(i, 1), exec);
    window.add(recs[0].estimate, recs[0].truth_value);
    out.mse.push_back(window.mse());
    out.records.push_back(recs[0]);
    if (chaos) chaos->advance_to(i + 1);
  }
  out.recovery = system.recovery_counters();
  out.reliable = system.reliable().stats();
  if (chaos) out.chaos = chaos->counters();
  return out;
}

bool identical(const core::HirepSystem::TransactionRecord& a,
               const core::HirepSystem::TransactionRecord& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.requestor == b.requestor && a.provider == b.provider &&
         bits(a.estimate) == bits(b.estimate) &&
         bits(a.truth_value) == bits(b.truth_value) &&
         bits(a.outcome) == bits(b.outcome) && a.responses == b.responses &&
         a.trust_messages == b.trust_messages;
}

}  // namespace

int main(int argc, char** argv) {
  // Deterministic obs clock (fake_clock=1): two identical invocations then
  // write byte-identical json documents (the CI chaos-smoke replay check).
  // Installed before run_exhibit so every harness timer sees the same
  // clock from its first reading.
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
      "Chaos recovery — accuracy dip and reconvergence under agent crash + "
      "partition schedules (deterministic replay)",
      [](sim::Scenario& sc, const util::Config& cfg) {
        if (!cfg.has("network_size")) sc.network_size(200);
        if (!cfg.has("transactions")) sc.transactions(240);
        sim::Params& p = sc.params();
        if (!cfg.has("mse_window")) p.mse_window = 40;
        if (!cfg.has("chaos")) p.chaos = "on";
        // Default schedule scales with the horizon: crash at 1/4, restart
        // at 1/2, partition at 5/8, heal at 3/4 — each fault gets a
        // recovery span before the next one (or the end) is measured.
        const std::size_t total = p.transactions;
        if (!cfg.has("chaos_crash_at")) p.chaos_crash_at = total / 4;
        if (!cfg.has("chaos_restart_at")) p.chaos_restart_at = total / 2;
        if (!cfg.has("chaos_agent_crash_fraction")) {
          p.chaos_agent_crash_fraction = 0.3;
        }
        if (!cfg.has("chaos_partition_at")) {
          p.chaos_partition_at = (5 * total) / 8;
        }
        if (!cfg.has("chaos_heal_at")) p.chaos_heal_at = (3 * total) / 4;
        if (!cfg.has("chaos_partition_fraction")) {
          p.chaos_partition_fraction = 0.3;
        }
        if (!cfg.has("retry_max_attempts")) p.retry_max_attempts = 3;
        if (!cfg.has("retry_backoff_ms")) p.retry_backoff_ms = 1.0;
        if (!cfg.has("retry_jitter_ms")) p.retry_jitter_ms = 0.5;
        if (!cfg.has("min_quorum")) {
          p.min_quorum = (p.trusted_agents * 4) / 5;
        }
        // Consumed in main() (the clock must be pinned before the harness
        // timers start); read here only so the unused-parameter scan and
        // the json config echo see the key.
        (void)cfg.get_int("fake_clock", 0);
      },
      [](const sim::Scenario& sc) -> sim::ExperimentResult {
        const sim::Params& p = sc.params();
        sim::Params calm = p;
        calm.chaos = "off";

        const RunResult baseline = run_once(calm);
        const RunResult chaotic = run_once(p);
        const RunResult replay = run_once(p);

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < chaotic.records.size(); ++i) {
          mismatches += !identical(chaotic.records[i], replay.records[i]);
        }

        // Measurement points around the schedule (all indices are "after
        // transaction t", clamped into range for tiny horizons).
        const auto at = [&](std::size_t t) {
          if (chaotic.mse.empty()) return 0.0;
          const std::size_t i = t == 0 ? 0 : t - 1;
          return chaotic.mse[std::min(i, chaotic.mse.size() - 1)];
        };
        const double pre_crash = at(p.chaos_crash_at);
        const double post_restart = at(p.chaos_partition_at);
        const double post_heal = chaotic.mse.empty() ? 0.0
                                                     : chaotic.mse.back();

        util::Table table({"tick", "phase", "chaos_mse", "baseline_mse"});
        const auto phase_of = [&](std::size_t t) -> std::string {
          if (p.chaos_crash_at && t <= p.chaos_crash_at) return "pre-fault";
          if (p.chaos_restart_at && t <= p.chaos_restart_at) return "outage";
          if (p.chaos_partition_at && t <= p.chaos_partition_at) {
            return "recovery";
          }
          if (p.chaos_heal_at && t <= p.chaos_heal_at) return "partition";
          return "post-heal";
        };
        const std::size_t step = std::max<std::size_t>(1, p.mse_window / 2);
        for (std::size_t t = step; t <= chaotic.mse.size(); t += step) {
          table.add_row({static_cast<std::int64_t>(t), phase_of(t),
                         chaotic.mse[t - 1], baseline.mse[t - 1]});
        }

        sim::ExperimentResult result{std::move(table), {}};
        result.checks.push_back(
            {"scripted schedule fired: agents crashed and restarted",
             chaotic.chaos.scripted_crashes > 0 && chaotic.chaos.restarts > 0,
             "crashes=" + std::to_string(chaotic.chaos.scripted_crashes) +
                 " restarts=" + std::to_string(chaotic.chaos.restarts) +
                 " partitions=" + std::to_string(chaotic.chaos.partitions) +
                 " heals=" + std::to_string(chaotic.chaos.heals)});
        result.checks.push_back(
            {"failover engaged: retries, quarantines, degraded queries",
             chaotic.reliable.retries > 0 && chaotic.recovery.quarantines > 0 &&
                 chaotic.recovery.degraded_queries > 0,
             "retries=" + std::to_string(chaotic.reliable.retries) +
                 " timeouts=" + std::to_string(chaotic.reliable.timeouts) +
                 " quarantines=" +
                 std::to_string(chaotic.recovery.quarantines) +
                 " degraded=" +
                 std::to_string(chaotic.recovery.degraded_queries)});
        result.checks.push_back(
            {"community healed: quarantines lifted, backups promoted, or "
             "agents re-discovered",
             chaotic.recovery.probations_cleared +
                     chaotic.recovery.backup_promotions +
                     chaotic.recovery.rediscoveries >
                 0,
             "probations_cleared=" +
                 std::to_string(chaotic.recovery.probations_cleared) +
                 " backup_promotions=" +
                 std::to_string(chaotic.recovery.backup_promotions) +
                 " rediscoveries=" +
                 std::to_string(chaotic.recovery.rediscoveries)});
        result.checks.push_back(
            {"reconverges after the agent mass-crash is restarted",
             post_restart <= 1.5 * pre_crash + 0.05,
             "pre_crash_mse=" + std::to_string(pre_crash) +
                 " post_restart_mse=" + std::to_string(post_restart)});
        result.checks.push_back(
            {"reconverges after the partition heals",
             post_heal <= 1.5 * pre_crash + 0.05,
             "pre_crash_mse=" + std::to_string(pre_crash) +
                 " post_heal_mse=" + std::to_string(post_heal)});
        result.checks.push_back(
            {"chaos replay is deterministic: byte-identical records",
             mismatches == 0,
             std::to_string(mismatches) + " of " +
                 std::to_string(chaotic.records.size()) + " records differ"});
        return result;
      });
}
