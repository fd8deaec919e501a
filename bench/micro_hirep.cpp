// Micro-benchmarks for the hiREP core: bootstrap, transactions in both
// crypto modes, trust queries, agent ranking, and EigenTrust.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "hirep/system.hpp"
#include "trust/eigentrust.hpp"

namespace {

using namespace hirep;

core::HirepOptions options(std::size_t nodes, core::CryptoMode mode) {
  core::HirepOptions o;
  o.nodes = nodes;
  o.rsa_bits = 64;
  o.crypto = mode;
  o.seed = 1;
  return o;
}

void BM_SystemBootstrapFast(benchmark::State& state) {
  for (auto _ : state) {
    core::HirepSystem system(
        options(static_cast<std::size_t>(state.range(0)), core::CryptoMode::kFast));
    benchmark::DoNotOptimize(system.agent_count());
  }
}
BENCHMARK(BM_SystemBootstrapFast)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SystemBootstrapFullCrypto(benchmark::State& state) {
  for (auto _ : state) {
    core::HirepSystem system(
        options(static_cast<std::size_t>(state.range(0)), core::CryptoMode::kFull));
    benchmark::DoNotOptimize(system.agent_count());
  }
}
BENCHMARK(BM_SystemBootstrapFullCrypto)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_TransactionFast(benchmark::State& state) {
  core::HirepSystem system(options(500, core::CryptoMode::kFast));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run_transaction());
  }
}
BENCHMARK(BM_TransactionFast)->Unit(benchmark::kMicrosecond);

void BM_TransactionFullCrypto(benchmark::State& state) {
  core::HirepSystem system(options(200, core::CryptoMode::kFull));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run_transaction());
  }
}
BENCHMARK(BM_TransactionFullCrypto)->Unit(benchmark::kMillisecond);

void BM_QueryTrustFast(benchmark::State& state) {
  core::HirepSystem system(options(500, core::CryptoMode::kFast));
  net::NodeIndex subject = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.query_trust(0, subject));
    subject = (subject % 400) + 1;
  }
}
BENCHMARK(BM_QueryTrustFast)->Unit(benchmark::kMicrosecond);

void BM_RankAndSelect(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<std::vector<core::AgentEntry>> lists;
  for (int l = 0; l < state.range(0); ++l) {
    std::vector<core::AgentEntry> list;
    for (int e = 0; e < 10; ++e) {
      core::AgentEntry entry;
      entry.agent_id.bytes[0] = static_cast<std::uint8_t>(rng.below(64));
      entry.agent_id.bytes[1] = static_cast<std::uint8_t>(l);
      entry.weight = rng.uniform();
      list.push_back(entry);
    }
    lists.push_back(std::move(list));
  }
  const std::vector<std::span<const core::AgentEntry>> views(lists.begin(),
                                                             lists.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_and_select(views, 10, rng));
  }
}
BENCHMARK(BM_RankAndSelect)->Arg(10)->Arg(100);

void BM_ExpertiseUpdate(benchmark::State& state) {
  core::ListParams params;
  params.capacity = 10;
  core::TrustedAgentList list(params);
  crypto::NodeId id;
  id.bytes[0] = 1;
  core::AgentEntry entry;
  entry.agent_id = id;
  list.add(entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.update_expertise(id, true));
  }
}
BENCHMARK(BM_ExpertiseUpdate);

void BM_EigenTrustCompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  trust::EigenTrust et(n);
  for (std::size_t i = 0; i < n * 8; ++i) {
    et.add_local_trust(rng.below(n), rng.below(n), rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(et.compute());
  }
}
BENCHMARK(BM_EigenTrustCompute)->Arg(100)->Arg(500)->Unit(benchmark::kMicrosecond);

}  // namespace
