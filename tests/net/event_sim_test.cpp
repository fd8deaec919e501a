#include "net/event_sim.hpp"

#include <gtest/gtest.h>

namespace hirep::net {
namespace {

TEST(EventSim, RunsInTimeOrder) {
  EventSim sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(EventSim, FifoTieBreak) {
  EventSim sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventSim, ScheduleInIsRelative) {
  EventSim sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(EventSim, PastTimesClampToNow) {
  EventSim sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventSim, RunUntilStopsAtDeadline) {
  EventSim sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&] { ++count; });
  }
  EXPECT_EQ(sim.run_until(2.5), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(EventSim, CascadingEvents) {
  EventSim sim;
  int depth = 0;
  std::function<void()> cascade = [&] {
    if (++depth < 10) sim.schedule_in(1.0, cascade);
  };
  sim.schedule_at(0.0, cascade);
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(EventSim, ResetClearsEverything) {
  EventSim sim;
  sim.schedule_at(5.0, [] {});
  sim.reset();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.run(), 0u);
}

}  // namespace
}  // namespace hirep::net
