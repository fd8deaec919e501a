// hiREP repository benchmark program.
//
// One process runs one workload.  It draws the workload's requestor/provider
// pairs from the seed (the figure runners' pick_pair rule), builds a
// core::HirepSystem from a default sim::Scenario, feeds the pairs to
// run_transactions() in 100 equal consecutive chunks with the scenario's
// executor, and destroys the system.  That repetition runs until --seconds of
// measurement have passed, and at least kMinReps times.  Every repetition
// starts from cleared process-wide state (VerifyCache, obs::Registry, check)
// and must pass the correctness gate.  Every metric is printed as
// "name value unit"; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//   hirep_perfbench --workload fig5_uniform --seed 1 --seconds 30 --trace 0
//   hirep_perfbench --workload fig6_hot --seed 1 --seconds 30 --trace 1
//       --trace-out spans.jsonl
//   hirep_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics, measured without spans.
// --trace 1 first runs the self-test, then alternates repetitions without
// and with spans (at least two of each; the untraced ones give the overhead
// ratio's denominator).  Spans wrap every call into the system:
// construction, each chunk, destruction.  At each span boundary it reads the
// obs::Registry instruments and the process CPU clock; span deltas become the
// per-layer metrics, and --trace-out writes the spans as JSON lines.
//
// Exit code: 0 when the gate holds, 1 when it fails (the JSON line still
// prints, with "correct": false), 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "crypto/verify_cache.hpp"
#include "hirep/system.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace hirep;

using Pair = std::pair<net::NodeIndex, net::NodeIndex>;
using Record = core::HirepSystem::TransactionRecord;
/// Registry instruments flattened to name -> value (see flatten()).
using Counts = std::map<std::string, double>;

constexpr std::size_t kChunks = 100;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 50;
constexpr std::size_t kMinTracedReps = 2;
/// The figure runners' workload salt (sim/experiment.cpp), so a seed draws
/// the same pairs here as in the figure benches.
constexpr std::uint64_t kWorkloadSalt = 0x5eedba5eca11f00dULL;

struct Workload {
  const char* name;
  std::size_t nodes;
  std::size_t transactions;
  std::size_t requestor_pool;  ///< 0 = whole population
  std::size_t provider_pool;   ///< 0 = whole population
  const char* crypto;
};

constexpr Workload kWorkloads[] = {
    {"fig5_uniform", 20'000, 100'000, 0, 0, "fast"},
    {"fig6_hot", 5'000, 100'000, 50, 100, "fast"},
    {"fig5_full", 2'000, 4'000, 0, 0, "full"},
};

// -- clocks ------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the value with ceil(q*n) samples at or below it.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// -- inputs ------------------------------------------------------------------

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

/// The system under test: Scenario defaults, including the world seed, so
/// every run bootstraps the same network and only the pairs vary.
sim::Scenario scenario_for(const Workload& w) {
  sim::Scenario sc;
  sc.network_size(w.nodes)
      .transactions(w.transactions)
      .crypto(w.crypto)
      .threads(bench_threads());
  sc.params().requestor_pool = w.requestor_pool;
  sc.params().provider_pool = w.provider_pool;
  sc.validate();
  return sc;
}

/// The figure runners' pick_pair rule over a dedicated workload stream.
std::vector<Pair> draw_pairs(const sim::Params& p, std::uint64_t seed) {
  util::Rng rng(seed ^ kWorkloadSalt);
  const std::size_t rn =
      p.requestor_pool ? std::min(p.requestor_pool, p.network_size) : p.network_size;
  const std::size_t pn =
      p.provider_pool ? std::min(p.provider_pool, p.network_size) : p.network_size;
  std::vector<Pair> pairs;
  pairs.reserve(p.transactions);
  for (std::size_t i = 0; i < p.transactions; ++i) {
    const auto r = static_cast<net::NodeIndex>(rng.below(rn));
    net::NodeIndex q;
    do {
      q = static_cast<net::NodeIndex>(rng.below(pn));
    } while (q == r);
    pairs.emplace_back(r, q);
  }
  return pairs;
}

std::span<const Pair> chunk_of(const std::vector<Pair>& pairs, std::size_t c) {
  const std::size_t lo = pairs.size() * c / kChunks;
  const std::size_t hi = pairs.size() * (c + 1) / kChunks;
  return std::span<const Pair>(pairs).subspan(lo, hi - lo);
}

/// Waves the engine forms on `pairs`: per run_transactions() call, maximal
/// conflict-free prefixes capped at the executor's wave window (the rule in
/// HirepSystem::run_transactions).
std::size_t count_waves(const std::vector<Pair>& pairs, std::size_t nodes,
                        std::size_t window) {
  std::vector<std::size_t> claimed(nodes, 0);  // wave id that claimed a node
  std::size_t waves = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const auto chunk = chunk_of(pairs, c);
    std::size_t i = 0;
    while (i < chunk.size()) {
      ++waves;
      std::size_t size = 0;
      for (; i < chunk.size(); ++i, ++size) {
        if (window != 0 && size >= window) break;
        const auto [r, p] = chunk[i];
        if (claimed[r] == waves || claimed[p] == waves) break;
        claimed[r] = claimed[p] = waves;
      }
    }
  }
  return waves;
}

// -- registry reads ----------------------------------------------------------

/// Counters by name, histograms as "<name>.count" / "<name>.sum", timers as
/// "<name>.count" / "<name>.total_ns".  Gauges are levels, not work, and are
/// left out.
Counts flatten(const obs::Snapshot& s) {
  Counts out;
  for (const auto& c : s.counters) out[c.name] = static_cast<double>(c.value);
  for (const auto& h : s.histograms) {
    out[h.name + ".count"] = static_cast<double>(h.count);
    out[h.name + ".sum"] = h.sum;
  }
  for (const auto& t : s.timers) {
    out[t.name + ".count"] = static_cast<double>(t.count);
    out[t.name + ".total_ns"] = static_cast<double>(t.total_ns);
  }
  return out;
}

Counts read_registry() { return flatten(obs::Registry::global().snapshot()); }

Counts delta(const Counts& before, const Counts& after) {
  Counts out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    const double d = v - (it == before.end() ? 0.0 : it->second);
    if (d != 0.0) out[name] = d;
  }
  return out;
}

double get(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Sum of every "<prefix><type><suffix>" entry (one per envelope type).
double sum_matching(const Counts& c, std::string_view prefix,
                    std::string_view suffix) {
  double total = 0.0;
  for (const auto& [name, v] : c) {
    if (name.size() > prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix) &&
        name.find('.', prefix.size()) == name.size() - suffix.size()) {
      total += v;
    }
  }
  return total;
}

/// Flattened entries that count work (not time): counters and the sample
/// counts of histograms and timers.
bool is_count(const std::string& name) {
  return !name.ends_with(".sum") && !name.ends_with(".total_ns");
}

/// Work counts (not times) whose values differ between two deltas.
std::vector<std::string> differing_counts(const Counts& a, const Counts& b) {
  std::set<std::string> names;
  for (const auto& [name, v] : a) names.insert(name);
  for (const auto& [name, v] : b) names.insert(name);
  std::vector<std::string> out;
  for (const std::string& name : names) {
    if (is_count(name) && get(a, name) != get(b, name)) out.push_back(name);
  }
  return out;
}

// -- tracing -----------------------------------------------------------------

struct Span {
  std::size_t rep = 0;
  std::string name;       ///< bootstrap | chunk | teardown
  long chunk = -1;        ///< chunk id for "chunk" spans, else -1
  double start_s = 0.0;   ///< relative to the repetition's start
  double end_s = 0.0;
  double cpu_s = 0.0;     ///< process CPU time inside the span
  Counts counts;          ///< registry deltas inside the span
};

/// Spans of the traced repetitions, kept in memory until the run ends.
class Tracer {
 public:
  void begin_rep(std::size_t rep) {
    rep_ = rep;
    origin_ = now_s();
  }
  void begin(std::string name, long chunk) {
    open_ = Span{rep_, std::move(name), chunk, now_s() - origin_, 0.0, 0.0, {}};
    cpu0_ = cpu_s();
    counts0_ = read_registry();
  }
  const Span& end() {
    open_.end_s = now_s() - origin_;
    open_.cpu_s = cpu_s() - cpu0_;
    open_.counts = delta(counts0_, read_registry());
    spans_.push_back(std::move(open_));
    return spans_.back();
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    char buf[64];
    const auto num = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::string(buf);
    };
    for (const Span& s : spans_) {
      out << "{\"rep\":" << s.rep << ",\"span\":\"" << s.name
          << "\",\"chunk\":" << s.chunk << ",\"start_s\":" << num(s.start_s)
          << ",\"end_s\":" << num(s.end_s) << ",\"cpu_s\":" << num(s.cpu_s)
          << ",\"counts\":{";
      bool first = true;
      for (const auto& [name, v] : s.counts) {
        out << (first ? "" : ",") << '"' << name << "\":" << num(v);
        first = false;
      }
      out << "}}\n";
    }
  }

 private:
  std::size_t rep_ = 0;
  double origin_ = 0.0;
  double cpu0_ = 0.0;
  Counts counts0_;
  Span open_;
  std::vector<Span> spans_;
};

// -- one repetition ----------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> chunk_s;
  std::vector<Record> records;
  std::uint64_t ledger_messages = 0;  ///< trust_message_total() delta
  // Filled only when traced.
  Counts counts;          ///< registry delta over the whole repetition
  double run_cpu_s = 0.0; ///< process CPU time inside the chunk spans
};

/// Clears all process-wide state a previous system leaves behind, so every
/// repetition starts as a fresh process would.
void isolate() {
  crypto::VerifyCache::global().clear();
  obs::Registry::global().reset();
  check::clear();
}

Rep run_rep(const sim::Scenario& sc, const std::vector<Pair>& pairs,
            const core::Executor& exec, Tracer* tracer) {
  isolate();
  const core::HirepOptions options = sc.hirep_options();
  Rep rep;
  rep.chunk_s.reserve(kChunks);
  rep.records.reserve(pairs.size());
  const Counts counts0 = tracer ? read_registry() : Counts{};

  // Span bookkeeping sits outside the timed calls and inside wall_s, where
  // it shows up as unattributed time.
  const double t0 = now_s();
  if (tracer) tracer->begin("bootstrap", -1);
  const double b0 = now_s();
  auto system = std::make_unique<core::HirepSystem>(options);
  rep.setup_s = now_s() - b0;
  if (tracer) tracer->end();

  const std::uint64_t ledger0 = system->trust_message_total();
  for (std::size_t c = 0; c < kChunks; ++c) {
    if (tracer) tracer->begin("chunk", static_cast<long>(c));
    const double c0 = now_s();
    auto out = system->run_transactions(chunk_of(pairs, c), exec);
    const double c1 = now_s();
    if (tracer) rep.run_cpu_s += tracer->end().cpu_s;
    rep.chunk_s.push_back(c1 - c0);
    rep.run_s += c1 - c0;
    rep.records.insert(rep.records.end(), out.begin(), out.end());
  }
  rep.ledger_messages = system->trust_message_total() - ledger0;

  if (tracer) tracer->begin("teardown", -1);
  const double d0 = now_s();
  system.reset();
  rep.teardown_s = now_s() - d0;
  if (tracer) tracer->end();
  rep.wall_s = now_s() - t0;
  if (tracer) rep.counts = delta(counts0, read_registry());
  return rep;
}

// -- correctness gate --------------------------------------------------------

struct Gate {
  std::size_t violations = 0;    ///< check::violation_count()
  std::size_t bad_records = 0;   ///< estimate outside [0,1] or responses > c
  bool ledger_ok = false;        ///< sum of trust_messages == ledger delta
  bool ok() const { return violations == 0 && bad_records == 0 && ledger_ok; }
};

Gate evaluate_gate(const Rep& rep, std::size_t c) {
  Gate g;
  g.violations = check::violation_count();
  std::uint64_t messages = 0;
  for (const Record& r : rep.records) {
    const bool in_range = r.estimate >= 0.0 && r.estimate <= 1.0;  // NaN fails
    if (!in_range || r.responses > c) ++g.bad_records;
    messages += r.trust_messages;
  }
  g.ledger_ok = messages == rep.ledger_messages;
  return g;
}

void print_gate(std::ostream& os, const char* label, const Gate& g) {
  os << "gate " << label << ": violations=" << g.violations
     << " bad_records=" << g.bad_records
     << " ledger=" << (g.ledger_ok ? "ok" : "MISMATCH")
     << (g.ok() ? " -> pass" : " -> FAIL") << '\n';
}

/// Order-sensitive digest of every record field, bit-exact on doubles.
std::uint64_t digest(const std::vector<Record>& records) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const Record& r : records) {
    mix(r.requestor);
    mix(r.provider);
    mix(std::bit_cast<std::uint64_t>(r.estimate));
    mix(std::bit_cast<std::uint64_t>(r.truth_value));
    mix(std::bit_cast<std::uint64_t>(r.outcome));
    mix(r.responses);
    mix(r.trust_messages);
  }
  return h;
}

// -- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Quality {
  double msgs_per_txn = 0.0;
  double mse = 0.0;
  double answered_ratio = 0.0;  ///< transactions with >= 1 agent rating
};

Quality quality_of(const std::vector<Record>& records) {
  Quality q;
  double msgs = 0.0;
  double sq = 0.0;
  std::size_t zero = 0;
  for (const Record& r : records) {
    msgs += static_cast<double>(r.trust_messages);
    sq += (r.estimate - r.truth_value) * (r.estimate - r.truth_value);
    zero += r.responses == 0;
  }
  const auto n = static_cast<double>(records.size());
  q.msgs_per_txn = msgs / n;
  q.mse = sq / n;
  q.answered_ratio = 1.0 - static_cast<double>(zero) / n;
  return q;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << ' ' << json_number(m.value) << ' ' << m.unit << '\n';
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Per-layer metrics of one traced repetition (counts are this
/// repetition's registry deltas; times are its span durations).
std::vector<Metric> layer_metrics(const Rep& rep) {
  const Counts& d = rep.counts;
  std::vector<Metric> m;
  const double unattributed =
      rep.wall_s - (rep.setup_s + rep.run_s + rep.teardown_s);
  m.push_back({"hirep.bootstrap_s", rep.setup_s, "s"});
  m.push_back({"hirep.run_s", rep.run_s, "s"});
  m.push_back({"hirep.teardown_s", rep.teardown_s, "s"});
  m.push_back({"hirep.unattributed_s", unattributed, "s"});
  m.push_back({"hirep.unattributed_share", unattributed / rep.wall_s, "share"});
  for (const char* name :
       {"hirep.discovery.walks", "hirep.discovery.agents_added",
        "hirep.trust.queries", "hirep.trust.votes_sent", "hirep.agent.evictions"}) {
    m.push_back({name, get(d, name), "count"});
  }
  for (const char* op : {"generate", "encrypt", "decrypt", "sign", "verify"}) {
    const std::string base = std::string("crypto.rsa.") + op;
    m.push_back({base + ".ops", get(d, base + ".ops"), "count"});
    m.push_back({base + ".busy_ms", get(d, base + ".ms.sum"), "ms"});
  }
  for (const char* cache : {"crypto.verify_cache", "crypto.binding_cache"}) {
    const std::string base = cache;
    const double hits = get(d, base + ".hits");
    const double lookups = hits + get(d, base + ".misses");
    m.push_back({base + ".hits", hits, "count"});
    m.push_back({base + ".lookups", lookups, "count"});
    m.push_back({base + ".hit_ratio", lookups > 0 ? hits / lookups : 0.0, "share"});
  }
  for (const char* name : {"onion.built", "onion.layers_built",
                           "onion.layers_peeled", "onion.sq.refreshes"}) {
    m.push_back({name, get(d, name), "count"});
  }
  m.push_back({"net.envelope.sent", sum_matching(d, "net.envelope.", ".sent"), "count"});
  m.push_back({"net.envelope.hop_messages",
               sum_matching(d, "net.envelope.", ".hop_messages"), "count"});
  for (const char* name : {"net.envelope.key_exchange.sent",
                           "net.envelope.agent_list_request.sent"}) {
    m.push_back({name, get(d, name), "count"});
  }
  for (const char* phase : {"send", "batch_build", "drain"}) {
    m.push_back({std::string("net.transport.") + phase + "_busy_ms",
                 get(d, std::string("transport/") + phase + ".total_ns") * 1e-6,
                 "ms"});
  }
  for (const char* name :
       {"net.reliable.requests", "net.reliable.retries", "net.arena.slab_allocs"}) {
    m.push_back({name, get(d, name), "count"});
  }
  m.push_back({"hirep.trust.failed_txn_ratio",
               1.0 - quality_of(rep.records).answered_ratio, "share"});
  m.push_back({"util.cpu_s", rep.run_cpu_s, "s"});
  m.push_back({"util.cpu_per_wall", rep.run_cpu_s / rep.run_s, "ratio"});
  return m;
}

/// Element-wise median over repetitions of same-named metric lists.  Counts
/// keep the first repetition's value: exact counts are equal anyway, and a
/// scheduling-dependent count stays a count actually observed.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out = reps.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].unit == "count") continue;
    std::vector<double> vs;
    for (const auto& r : reps) vs.push_back(r[i].value);
    out[i].value = median(vs);
  }
  return out;
}

// -- runs --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Repetitions run so far pass the gate and agree byte for byte.
struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t first_digest = 0;

  void add(const Rep& rep, std::size_t c, const char* label) {
    const Gate g = evaluate_gate(rep, c);
    print_gate(std::cout, label, g);
    const std::uint64_t h = digest(rep.records);
    if (attempted == 0) first_digest = h;
    if (h != first_digest) {
      std::cout << "gate " << label << ": records differ from the first "
                << "repetition -> FAIL\n";
      correct = false;
    }
    correct = correct && g.ok();
    attempted += rep.records.size();
    failed += g.bad_records;
  }
};

int run_untraced(const Options& o) {
  const Workload& w = find_workload(o.workload);
  const sim::Scenario sc = scenario_for(w);
  const auto pairs = draw_pairs(sc.params(), o.seed);
  const core::Executor exec = sc.execution_policy();
  const std::size_t c = sc.params().trusted_agents;

  Verdict verdict;
  std::vector<double> setup, txn_per_s, p50, p90, wall;
  Quality quality;
  double measured = 0.0;
  for (std::size_t i = 0; i < kMaxReps && (i < kMinReps || measured < o.seconds);
       ++i) {
    const Rep rep = run_rep(sc, pairs, exec, nullptr);
    verdict.add(rep, c, ("rep " + std::to_string(i)).c_str());
    if (i == 0) quality = quality_of(rep.records);
    std::cout << "rep " << i << ": setup_s=" << json_number(rep.setup_s)
              << " run_s=" << json_number(rep.run_s)
              << " teardown_s=" << json_number(rep.teardown_s) << '\n';
    measured += rep.wall_s;
    setup.push_back(rep.setup_s);
    txn_per_s.push_back(static_cast<double>(rep.records.size()) / rep.run_s);
    p50.push_back(median(rep.chunk_s) * 1e3);
    p90.push_back(percentile(rep.chunk_s, 0.9) * 1e3);
    wall.push_back(rep.wall_s);
  }
  std::cout << "workload " << w.name << ": N=" << w.nodes
            << " T=" << w.transactions << " crypto=" << w.crypto
            << " executor=" << core::to_string(exec.mode)
            << " threads=" << exec.threads << " reps=" << setup.size()
            << " chunks/rep=" << kChunks << '\n';
  print_result(verdict.correct, verdict.attempted, verdict.failed,
               {{"setup_s", median(setup), "s"},
                {"txn_per_s", median(txn_per_s), "txn/s"},
                {"chunk_ms_p50", median(p50), "ms"},
                {"chunk_ms_p90", median(p90), "ms"},
                {"wall_s", median(wall), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"trust_msgs_per_txn", quality.msgs_per_txn, "msgs"},
                {"estimate_mse", quality.mse, "mse"},
                {"answered_txn_ratio", quality.answered_ratio, "share"}});
  return verdict.correct ? 0 : 1;
}

bool self_test(std::ostream& os);

int run_traced(const Options& o) {
  const bool self_test_ok = self_test(std::cout);
  const Workload& w = find_workload(o.workload);

  const double s0 = now_s();
  const sim::Scenario sc = scenario_for(w);
  const core::Executor exec = sc.execution_policy();
  const double s1 = now_s();
  const auto pairs = draw_pairs(sc.params(), o.seed);
  const double s2 = now_s();
  const std::size_t c = sc.params().trusted_agents;

  // Repetitions alternate without and with spans, so the overhead ratio
  // compares like with like (the first repetition of a process runs cold).
  Verdict verdict;
  Tracer tracer;
  std::vector<double> plain_run_s;
  std::vector<Rep> traced;
  std::size_t violations = 0;
  double measured = 0.0;
  for (std::size_t i = 0;
       i < 2 * kMaxReps &&
       (traced.size() < kMinTracedReps || i % 2 == 1 || measured < o.seconds);
       ++i) {
    const bool spans = i % 2 == 1;
    if (spans) tracer.begin_rep(traced.size());
    Rep rep = run_rep(sc, pairs, exec, spans ? &tracer : nullptr);
    const std::string label = (spans ? "traced " : "untraced ") + std::to_string(i / 2);
    verdict.add(rep, c, label.c_str());
    violations += check::violation_count();
    measured += rep.wall_s;
    if (spans) {
      traced.push_back(std::move(rep));
    } else {
      plain_run_s.push_back(rep.run_s);
    }
  }

  // Exact counts repeat bit for bit across repetitions of one seed; the
  // rest depend on thread scheduling and may back no count claim.
  std::set<std::string> inexact;
  for (std::size_t i = 1; i < traced.size(); ++i) {
    for (const std::string& name : differing_counts(traced[0].counts, traced[i].counts)) {
      if (inexact.insert(name).second) {
        std::cout << "count " << name << ": scheduling-dependent ("
                  << json_number(get(traced[0].counts, name)) << " vs "
                  << json_number(get(traced[i].counts, name)) << ")\n";
      }
    }
  }
  std::vector<std::vector<Metric>> per_rep;
  std::vector<double> run_s;
  for (const Rep& rep : traced) {
    per_rep.push_back(layer_metrics(rep));
    run_s.push_back(rep.run_s);
  }
  std::vector<Metric> metrics = median_metrics(per_rep);
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (metrics[k].unit != "count") continue;
    const bool exact = std::all_of(per_rep.begin(), per_rep.end(), [&](const auto& r) {
      return r[k].value == metrics[k].value;
    });
    std::cout << "layer count " << metrics[k].name << ": "
              << (exact ? "exact" : "scheduling-dependent") << '\n';
  }

  const double waves = static_cast<double>(
      count_waves(pairs, sc.params().network_size, exec.wave_window));
  metrics.push_back({"sim.scenario_s", s1 - s0, "s"});
  metrics.push_back({"bench.pairgen_s", s2 - s1, "s"});
  metrics.push_back({"hirep.engine.waves", waves, "count"});
  metrics.push_back({"hirep.engine.wave_size_mean",
                     static_cast<double>(pairs.size()) / waves, "txn"});
  metrics.push_back({"obs.trace_overhead_ratio", median(run_s) / median(plain_run_s),
                     "ratio"});
  metrics.push_back({"check.violations", static_cast<double>(violations), "count"});
  metrics.push_back({"check.inexact_counts", static_cast<double>(inexact.size()), "count"});
  metrics.push_back({"check.self_test_failures", self_test_ok ? 0.0 : 1.0, "count"});

  if (!o.trace_out.empty()) tracer.write_jsonl(o.trace_out);
  const bool correct = verdict.correct && self_test_ok;
  print_result(correct, verdict.attempted, verdict.failed, metrics);
  return correct ? 0 : 1;
}

// -- self-test ---------------------------------------------------------------

/// Checks the benchmark's own machinery on a small network:
///  1. isolation — two back-to-back serial full-crypto repetitions give
///     identical registry counts (a warm VerifyCache would not);
///  2. the gate passes on a clean repetition and fails on an injected
///     check::report, an out-of-range estimate, responses > c, and a
///     ledger mismatch.
bool self_test(std::ostream& os) {
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    os << "self-test " << what << ": " << (cond ? "ok" : "FAILED") << '\n';
    ok = ok && cond;
  };
  const Workload small{"self_test", 200, 200, 0, 0, "full"};
  sim::Scenario sc = scenario_for(small);
  sc.execution("serial").threads(0).validate();
  const auto pairs = draw_pairs(sc.params(), 7);
  const core::Executor exec = sc.execution_policy();
  const std::size_t c = sc.params().trusted_agents;

  Tracer scratch;
  const Rep a = run_rep(sc, pairs, exec, &scratch);
  const Rep b = run_rep(sc, pairs, exec, &scratch);
  const std::size_t differing = differing_counts(a.counts, b.counts).size();
  expect(differing == 0 && !a.counts.empty(),
         "back-to-back serial repetitions give identical counts (" +
             std::to_string(differing) + " differ)");
  expect(digest(a.records) == digest(b.records),
         "back-to-back repetitions give identical records");

  expect(evaluate_gate(b, c).ok(), "gate passes on a clean repetition");
  check::report({"perfbench.injected", "gate negative test", -1.0, 0, 0});
  expect(!evaluate_gate(b, c).ok(), "gate fails on an injected check::report");
  check::clear();

  Rep bad = b;
  bad.records.front().estimate = 1.5;
  expect(!evaluate_gate(bad, c).ok(), "gate fails on an estimate outside [0,1]");
  bad = b;
  bad.records.front().responses = c + 1;
  expect(!evaluate_gate(bad, c).ok(), "gate fails on responses > c");
  bad = b;
  bad.ledger_messages += 1;
  expect(!evaluate_gate(bad, c).ok(), "gate fails on a ledger mismatch");
  isolate();
  return ok;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!o.self_test) find_workload(o.workload);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\nusage: hirep_perfbench --workload "
              << "fig5_uniform|fig6_hot|fig5_full --seed N --seconds S "
              << "--trace 0|1 [--trace-out PATH] | --self-test\n";
    return 2;
  }
  try {
    if (o.self_test) return self_test(std::cout) ? 0 : 1;
    return o.trace ? run_traced(o) : run_untraced(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
