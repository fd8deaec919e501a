#include "net/metrics.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace hirep::net {

namespace {

// Process-wide mirrors of the per-transport envelope counters, one
// registry counter per (envelope type, outcome).  Per-instance Counters
// stay authoritative (the transport's conservation invariant and
// DeliveryReceipts read them); the registry view is what BENCH_*.json
// exports.  References are resolved once — registry lookups take a mutex,
// updates are relaxed atomics.
struct EnvelopeRegistryCells {
  static constexpr std::size_t kN =
      static_cast<std::size_t>(EnvelopeType::kCount);
  std::array<obs::Counter*, kN> sent{};
  std::array<obs::Counter*, kN> delivered{};
  std::array<obs::Counter*, kN> dropped{};
  std::array<obs::Counter*, kN> duplicated{};
  std::array<obs::Counter*, kN> hop_messages{};
  std::array<obs::Counter*, kN> suppressed{};
  std::array<obs::Counter*, kN> bytes_sent{};
  std::array<obs::Counter*, kN> bytes_delivered{};
  std::array<obs::Counter*, kN> bytes_dropped{};
};

const EnvelopeRegistryCells& envelope_cells() {
  static const EnvelopeRegistryCells cells = [] {
    EnvelopeRegistryCells c;
    auto& reg = obs::Registry::global();
    for (std::size_t i = 0; i < EnvelopeRegistryCells::kN; ++i) {
      const std::string base =
          std::string("net.envelope.") + to_string(static_cast<EnvelopeType>(i));
      c.sent[i] = &reg.counter(base + ".sent");
      c.delivered[i] = &reg.counter(base + ".delivered");
      c.dropped[i] = &reg.counter(base + ".dropped");
      c.duplicated[i] = &reg.counter(base + ".duplicated");
      c.hop_messages[i] = &reg.counter(base + ".hop_messages");
      c.suppressed[i] = &reg.counter(base + ".suppressed");
      c.bytes_sent[i] = &reg.counter(base + ".payload_bytes_sent");
      c.bytes_delivered[i] = &reg.counter(base + ".payload_bytes_delivered");
      c.bytes_dropped[i] = &reg.counter(base + ".payload_bytes_dropped");
    }
    return c;
  }();
  return cells;
}

}  // namespace

const char* to_string(EnvelopeType type) noexcept {
  switch (type) {
    case EnvelopeType::kTrustRequest: return "trust_request";
    case EnvelopeType::kTrustResponse: return "trust_response";
    case EnvelopeType::kReport: return "report";
    case EnvelopeType::kAgentListRequest: return "agent_list_request";
    case EnvelopeType::kAgentListReply: return "agent_list_reply";
    case EnvelopeType::kKeyRotation: return "key_rotation";
    case EnvelopeType::kKeyExchange: return "key_exchange";
    case EnvelopeType::kProbe: return "probe";
    case EnvelopeType::kVotePoll: return "vote_poll";
    case EnvelopeType::kVoteReturn: return "vote_return";
    case EnvelopeType::kQuery: return "query";
    case EnvelopeType::kQueryHit: return "query_hit";
    case EnvelopeType::kCount: break;
  }
  return "?";
}

void EnvelopeMetrics::count_sent(EnvelopeType type) noexcept {
  ++counts_[static_cast<std::size_t>(type)].sent;
  if constexpr (obs::kEnabled) {
    envelope_cells().sent[static_cast<std::size_t>(type)]->add();
  }
}

void EnvelopeMetrics::count_delivered(EnvelopeType type) noexcept {
  ++counts_[static_cast<std::size_t>(type)].delivered;
  if constexpr (obs::kEnabled) {
    envelope_cells().delivered[static_cast<std::size_t>(type)]->add();
  }
}

void EnvelopeMetrics::count_dropped(EnvelopeType type) noexcept {
  ++counts_[static_cast<std::size_t>(type)].dropped;
  if constexpr (obs::kEnabled) {
    envelope_cells().dropped[static_cast<std::size_t>(type)]->add();
  }
}

void EnvelopeMetrics::count_duplicated(EnvelopeType type) noexcept {
  ++counts_[static_cast<std::size_t>(type)].duplicated;
  if constexpr (obs::kEnabled) {
    envelope_cells().duplicated[static_cast<std::size_t>(type)]->add();
  }
}

void EnvelopeMetrics::count_suppressed(EnvelopeType type) noexcept {
  ++counts_[static_cast<std::size_t>(type)].suppressed;
  if constexpr (obs::kEnabled) {
    envelope_cells().suppressed[static_cast<std::size_t>(type)]->add();
  }
}

void EnvelopeMetrics::count_hops(EnvelopeType type,
                                 std::uint64_t messages) noexcept {
  counts_[static_cast<std::size_t>(type)].hop_messages += messages;
  if constexpr (obs::kEnabled) {
    envelope_cells().hop_messages[static_cast<std::size_t>(type)]->add(messages);
  }
}

void EnvelopeMetrics::add(EnvelopeType type, const Counters& delta) noexcept {
  const std::size_t i = static_cast<std::size_t>(type);
  Counters& c = counts_[i];
  c.sent += delta.sent;
  c.delivered += delta.delivered;
  c.dropped += delta.dropped;
  c.duplicated += delta.duplicated;
  c.hop_messages += delta.hop_messages;
  c.suppressed += delta.suppressed;
  c.payload_bytes_sent += delta.payload_bytes_sent;
  c.payload_bytes_delivered += delta.payload_bytes_delivered;
  c.payload_bytes_dropped += delta.payload_bytes_dropped;
  if constexpr (obs::kEnabled) {
    const auto& cells = envelope_cells();
    if (delta.sent) cells.sent[i]->add(delta.sent);
    if (delta.delivered) cells.delivered[i]->add(delta.delivered);
    if (delta.dropped) cells.dropped[i]->add(delta.dropped);
    if (delta.duplicated) cells.duplicated[i]->add(delta.duplicated);
    if (delta.hop_messages) cells.hop_messages[i]->add(delta.hop_messages);
    if (delta.suppressed) cells.suppressed[i]->add(delta.suppressed);
    if (delta.payload_bytes_sent) {
      cells.bytes_sent[i]->add(delta.payload_bytes_sent);
    }
    if (delta.payload_bytes_delivered) {
      cells.bytes_delivered[i]->add(delta.payload_bytes_delivered);
    }
    if (delta.payload_bytes_dropped) {
      cells.bytes_dropped[i]->add(delta.payload_bytes_dropped);
    }
  }
}

void EnvelopeMetrics::absorb(const EnvelopeMetrics& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].sent += other.counts_[i].sent;
    counts_[i].delivered += other.counts_[i].delivered;
    counts_[i].dropped += other.counts_[i].dropped;
    counts_[i].duplicated += other.counts_[i].duplicated;
    counts_[i].hop_messages += other.counts_[i].hop_messages;
    counts_[i].suppressed += other.counts_[i].suppressed;
    counts_[i].payload_bytes_sent += other.counts_[i].payload_bytes_sent;
    counts_[i].payload_bytes_delivered +=
        other.counts_[i].payload_bytes_delivered;
    counts_[i].payload_bytes_dropped += other.counts_[i].payload_bytes_dropped;
  }
}

void EnvelopeMetrics::reset() noexcept { counts_.fill(Counters{}); }

const EnvelopeMetrics::Counters& EnvelopeMetrics::of(
    EnvelopeType type) const noexcept {
  return counts_[static_cast<std::size_t>(type)];
}

std::uint64_t EnvelopeMetrics::total_sent() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.sent;
  return sum;
}

std::uint64_t EnvelopeMetrics::total_delivered() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.delivered;
  return sum;
}

std::uint64_t EnvelopeMetrics::total_dropped() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.dropped;
  return sum;
}

std::uint64_t EnvelopeMetrics::total_hop_messages() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.hop_messages;
  return sum;
}

std::string EnvelopeMetrics::summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const Counters& c = counts_[i];
    if (c.sent == 0 && c.dropped == 0) continue;
    out << to_string(static_cast<EnvelopeType>(i)) << "={sent=" << c.sent
        << " delivered=" << c.delivered << " dropped=" << c.dropped
        << " dup=" << c.duplicated << " suppressed=" << c.suppressed
        << " hops=" << c.hop_messages
        << " bytes=" << c.payload_bytes_sent << '/'
        << c.payload_bytes_delivered << '/' << c.payload_bytes_dropped
        << "} ";
  }
  out << "total_sent=" << total_sent() << " total_delivered="
      << total_delivered() << " total_dropped=" << total_dropped();
  return out.str();
}

}  // namespace hirep::net
