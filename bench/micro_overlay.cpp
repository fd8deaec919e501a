// Micro-benchmarks for the overlay substrate: topology generation,
// flooding and token walks over an instant transport, the event queue, and
// the queueing model.
#include <benchmark/benchmark.h>

#include "net/event_sim.hpp"
#include "net/flood.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"

namespace {

using namespace hirep;

void BM_PowerLawGeneration(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(1);
    benchmark::DoNotOptimize(
        net::power_law(rng, static_cast<std::size_t>(state.range(0)), 4.0));
  }
}
BENCHMARK(BM_PowerLawGeneration)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Flood(benchmark::State& state) {
  util::Rng rng(2);
  net::Overlay overlay(net::power_law(rng, 2000, 4.0), net::LatencyParams{}, 1);
  net::Transport transport(&overlay, net::DeliveryConfig{}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::flood(transport, 0, static_cast<std::uint32_t>(state.range(0)),
                   net::EnvelopeType::kQuery));
  }
}
BENCHMARK(BM_Flood)->Arg(2)->Arg(4)->Arg(7);

void BM_TimedFlood(benchmark::State& state) {
  util::Rng rng(3);
  net::Overlay overlay(net::power_law(rng, 1000, 4.0), net::LatencyParams{}, 1);
  for (auto _ : state) {
    overlay.reset_time_state();
    benchmark::DoNotOptimize(
        net::timed_flood(overlay, 0, 4, 0.0));
  }
}
BENCHMARK(BM_TimedFlood)->Unit(benchmark::kMicrosecond);

void BM_TokenWalk(benchmark::State& state) {
  util::Rng rng(4);
  net::Overlay overlay(net::power_law(rng, 1000, 4.0), net::LatencyParams{}, 1);
  net::Transport transport(&overlay, net::DeliveryConfig{}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::token_walk(
        transport, rng, 0, static_cast<std::uint32_t>(state.range(0)), 7,
        [](net::NodeIndex v) { return v % 3 == 0; }));
  }
}
BENCHMARK(BM_TokenWalk)->Arg(5)->Arg(10)->Arg(50);

void BM_BfsDistances(benchmark::State& state) {
  util::Rng rng(5);
  const auto graph = net::power_law(rng, 5000, 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.bfs_distances(0));
  }
}
BENCHMARK(BM_BfsDistances)->Unit(benchmark::kMicrosecond);

void BM_EventSimThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::EventSim sim;
    util::Rng rng(6);
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_at(rng.uniform(0.0, 1000.0), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_EventSimThroughput)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_TimedSend(benchmark::State& state) {
  util::Rng rng(7);
  net::Overlay overlay(net::power_law(rng, 500, 4.0), net::LatencyParams{}, 1);
  double t = 0.0;
  for (auto _ : state) {
    t = overlay.timed_send(t, 0, 1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TimedSend);

}  // namespace
