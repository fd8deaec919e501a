#include "net/overlay.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace hirep::net {
namespace {

Overlay make_overlay(std::size_t nodes = 10) {
  Graph g = ring_lattice(nodes, 1);
  return Overlay(std::move(g), LatencyParams{}, 42);
}

TEST(LatencyModel, SymmetricAndBounded) {
  LatencyParams params{10.0, 40.0, 1.0};
  LatencyModel model(params, 7);
  for (NodeIndex a = 0; a < 20; ++a) {
    for (NodeIndex b = 0; b < 20; ++b) {
      const double l = model.link_ms(a, b);
      EXPECT_GE(l, 10.0);
      EXPECT_LT(l, 40.0);
      EXPECT_DOUBLE_EQ(l, model.link_ms(b, a));
    }
  }
}

TEST(LatencyModel, StablePerLink) {
  LatencyModel model({10, 40, 1}, 9);
  EXPECT_DOUBLE_EQ(model.link_ms(3, 5), model.link_ms(3, 5));
}

TEST(LatencyModel, SeedChangesLatencies) {
  LatencyModel a({10, 40, 1}, 1), b({10, 40, 1}, 2);
  int differs = 0;
  for (NodeIndex i = 0; i < 50; ++i) {
    if (a.link_ms(i, i + 1) != b.link_ms(i, i + 1)) ++differs;
  }
  EXPECT_GT(differs, 40);
}

TEST(Overlay, TimedSendAddsLatencyAndProcessing) {
  auto ov = make_overlay();
  const double done = ov.timed_send(0.0, 0, 1);
  const double expected =
      ov.latency().link_ms(0, 1) + ov.latency().processing_ms();
  EXPECT_DOUBLE_EQ(done, expected);
}

TEST(Overlay, ReceiverSerializesMessages) {
  auto ov = make_overlay();
  // Two messages arriving at node 2 at the same time: the second waits.
  const double first = ov.timed_send(0.0, 0, 2);
  const double second = ov.timed_send(0.0, 0, 2);
  EXPECT_DOUBLE_EQ(second, first + ov.latency().processing_ms());
}

TEST(Overlay, ResetTimeStateClearsQueues) {
  auto ov = make_overlay();
  ov.timed_send(0.0, 0, 1);
  ov.reset_time_state();
  const double done = ov.timed_send(0.0, 0, 1);
  EXPECT_DOUBLE_EQ(done,
                   ov.latency().link_ms(0, 1) + ov.latency().processing_ms());
}

TEST(Overlay, StatelessPathMatchesTimedOnQuietNetwork) {
  auto ov = make_overlay();
  const std::vector<NodeIndex> path{0, 2, 4, 6};
  const double stateless = ov.stateless_path(0.0, path);
  ov.reset_time_state();
  double timed = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    timed = ov.timed_send(timed, path[i], path[i + 1]);
  }
  EXPECT_DOUBLE_EQ(stateless, timed);
}

TEST(Overlay, StatelessPathHasNoQueueSideEffects) {
  auto ov = make_overlay();
  ov.stateless_path(0.0, {0, 5});
  // Node 5 must not be busy afterwards.
  const double done = ov.timed_send(0.0, 0, 5);
  EXPECT_DOUBLE_EQ(done,
                   ov.latency().link_ms(0, 5) + ov.latency().processing_ms());
}

TEST(Overlay, ShortPathsAreNoops) {
  auto ov = make_overlay();
  EXPECT_DOUBLE_EQ(ov.stateless_path(5.0, {}), 5.0);
}

}  // namespace
}  // namespace hirep::net
