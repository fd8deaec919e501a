#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/pure_voting.hpp"
#include "baselines/rca.hpp"
#include "gnutella/search.hpp"
#include "sim/response_time.hpp"

namespace hirep::sim {
namespace {

Params tiny_params() {
  Params p;
  p.network_size = 200;
  p.transactions = 60;
  p.mse_window = 20;
  p.requestor_pool = 20;
  p.provider_pool = 40;
  p.seeds = 1;
  return p;
}

TEST(Experiment, Fig5TableShape) {
  const auto result = run_fig5_traffic(tiny_params());
  EXPECT_EQ(result.table.columns(), 5u);
  EXPECT_GE(result.table.rows(), 5u);
  EXPECT_EQ(result.checks.size(), 3u);
  // Cumulative series are non-decreasing.
  for (const auto& col : {"voting-2", "voting-3", "voting-4", "hirep"}) {
    const auto ys = result.table.numeric_column(col);
    for (std::size_t i = 1; i < ys.size(); ++i) {
      EXPECT_LE(ys[i - 1], ys[i]) << col;
    }
  }
}

TEST(Experiment, Fig5HirepBeatsVotingOnTraffic) {
  const auto result = run_fig5_traffic(tiny_params());
  const auto hirep = result.table.numeric_column("hirep");
  const auto voting = result.table.numeric_column("voting-4");
  EXPECT_LT(hirep.back(), voting.back());
}

TEST(Experiment, Fig6TableShape) {
  auto p = tiny_params();
  p.transactions = 120;
  const auto result = run_fig6_accuracy(p);
  EXPECT_EQ(result.table.columns(), 5u);
  EXPECT_GE(result.checks.size(), 5u);
  for (const auto& col : {"voting", "hirep-4", "hirep-6", "hirep-8"}) {
    for (double v : result.table.numeric_column(col)) {
      EXPECT_GE(v, 0.0) << col;
      EXPECT_LE(v, 1.0) << col;
    }
  }
}

TEST(Experiment, TrafficBoundHoldsExactly) {
  auto p = tiny_params();
  const auto result = run_traffic_bound(p);
  EXPECT_TRUE(all_hold(result)) << "closed-form traffic bound violated";
  EXPECT_EQ(result.table.rows(), 9u);  // 3 x 3 sweep
}

TEST(Experiment, Fig8OrderingChecks) {
  auto p = tiny_params();
  p.network_size = 400;  // voting's serial vote ingestion needs scale
  p.transactions = 30;
  const auto result = run_fig8_response(p);
  EXPECT_EQ(result.table.columns(), 5u);
  // Relay-count ordering is structural and holds even at small scale.
  EXPECT_TRUE(result.checks[0].holds) << result.checks[0].detail;
}

TEST(Experiment, PrintResultIsWellFormed) {
  const auto result = run_traffic_bound(tiny_params());
  testing::internal::CaptureStdout();
  print_result(result, "unit-test");
  const auto text = testing::internal::GetCapturedStdout();
  EXPECT_NE(text.find("unit-test"), std::string::npos);
  EXPECT_NE(text.find("[PASS]"), std::string::npos);
}

TEST(Experiment, AverageOverSeedsAverages) {
  Params p;
  p.seeds = 4;
  const auto ys = average_over_seeds(
      p, [](std::uint64_t seed) {
        return std::vector<double>{static_cast<double>(seed % 2)};
      });
  ASSERT_EQ(ys.size(), 1u);
  EXPECT_GE(ys[0], 0.0);
  EXPECT_LE(ys[0], 1.0);
}

TEST(ResponseTime, HirepQueryPositiveAndBounded) {
  Params p = tiny_params();
  core::HirepSystem system(p.hirep_options());
  const double t = hirep_query_response_ms(system, 0, 5);
  if (system.peer(0).agents().size() > 0) {
    EXPECT_GT(t, 0.0);
    // Upper bound: 2*(o+1) hops of max latency + processing, plus slack
    // for requestor serialization.
    const double per_hop = 40.0 + 1.0;
    const double legs = 2.0 * static_cast<double>(p.relays_per_onion + 1);
    EXPECT_LT(t, legs * per_hop + 50.0);
  }
}

TEST(ResponseTime, MoreRelaysSlower) {
  auto mean_response = [](std::size_t relays) {
    Params p = tiny_params();
    p.relays_per_onion = relays;
    core::HirepSystem system(p.hirep_options());
    double sum = 0;
    for (int i = 0; i < 20; ++i) {
      sum += hirep_query_response_ms(system, static_cast<net::NodeIndex>(i), 50);
    }
    return sum / 20.0;
  };
  EXPECT_LT(mean_response(2), mean_response(8));
}

TEST(ResponseTime, TimingProbesSendNothing) {
  // The Figure 8 probes run on the overlay's queueing model; they must
  // leave every architecture's traffic ledger as it was.
  const Params p = tiny_params();
  core::HirepSystem hirep(p.hirep_options());
  const std::uint64_t trust0 = hirep.trust_message_total();
  const std::uint64_t hirep0 = hirep.transport().envelopes().total_sent();
  double timed = 0.0;
  for (net::NodeIndex requestor = 0; requestor < 10; ++requestor) {
    timed += hirep_query_response_ms(hirep, requestor, 50);
  }
  ASSERT_GT(timed, 0.0);
  EXPECT_EQ(hirep.trust_message_total(), trust0);
  EXPECT_EQ(hirep.transport().envelopes().total_sent(), hirep0);

  gnutella::CatalogParams files;
  files.files = 10;
  const gnutella::ContentCatalog catalog(hirep.rng(), hirep.node_count(),
                                         files);
  ASSERT_GT(gnutella::search_first_hit_ms(hirep.overlay(), catalog, 0, 0, 4),
            0.0);
  EXPECT_EQ(hirep.transport().envelopes().total_sent(), hirep0);

  baselines::PureVotingSystem voting(p.voting_options());
  const std::uint64_t voting0 = voting.transport().envelopes().total_sent();
  ASSERT_GT(voting.poll_timed(0, 5).response_ms, 0.0);
  EXPECT_EQ(voting.transport().envelopes().total_sent(), voting0);

  baselines::RcaSystem rca(baselines::RcaOptions{p.world_options()});
  ASSERT_GT(rca.timed_query_burst_ms(20), 0.0);
  EXPECT_EQ(rca.transport().envelopes().total_sent(), 0u);
}

}  // namespace
}  // namespace hirep::sim
