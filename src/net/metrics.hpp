// Traffic accounting.  The paper's primary efficiency metric (Figure 5) is
// "messages induced in the trust query process".  Every counted message is
// a typed envelope carried by net::Transport, and each transport keeps one
// ledger of them here, per EnvelopeType: the only traffic ledger.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace hirep::net {

/// Typed protocol envelopes carried by the transport layer.  Every counted
/// interaction is one of these, and its hop messages are tallied under its
/// own type in the transport's EnvelopeMetrics.
enum class EnvelopeType : std::uint8_t {
  kTrustRequest = 0,   ///< trust value request (peer -> agent)
  kTrustResponse,      ///< trust value response (agent -> peer)
  kReport,             ///< signed transaction report (peer -> agent)
  kAgentListRequest,   ///< trusted-agent-list request hop (§3.4.1 walk)
  kAgentListReply,     ///< trusted-agent-list reply (responder -> requestor)
  kKeyRotation,        ///< §3.5 key-rotation announcement (peer -> agent)
  kKeyExchange,        ///< Figure-3 anonymity-key handshake message
  kProbe,              ///< §3.4.3 backup-cache liveness probe
  kVotePoll,           ///< baseline: flooding trust poll
  kVoteReturn,         ///< baseline: vote returned along the reverse path
  kQuery,              ///< Gnutella QUERY flood hop (content search)
  kQueryHit,           ///< Gnutella QUERYHIT along the reverse path
  kCount
};

const char* to_string(EnvelopeType type) noexcept;

/// Per-envelope-type delivery accounting maintained by the transport:
/// how many envelopes entered the transport, how many reached their
/// destination, how many were lost in transit, and the hop messages spent.
class EnvelopeMetrics {
 public:
  struct Counters {
    std::uint64_t sent = 0;        ///< envelopes handed to the transport
    std::uint64_t delivered = 0;   ///< envelopes that reached path end
    std::uint64_t dropped = 0;     ///< envelopes lost at some hop
    std::uint64_t duplicated = 0;  ///< hops transmitted twice by the policy
    std::uint64_t hop_messages = 0;///< transmissions spent (incl. duplicates)
    std::uint64_t suppressed = 0;  ///< duplicate copies discarded at a receiver
    std::uint64_t payload_bytes_sent = 0;       ///< bytes handed to transport
    std::uint64_t payload_bytes_delivered = 0;  ///< bytes that reached path end
    std::uint64_t payload_bytes_dropped = 0;    ///< bytes lost at some hop
  };

  void count_sent(EnvelopeType type) noexcept;
  void count_delivered(EnvelopeType type) noexcept;
  void count_dropped(EnvelopeType type) noexcept;
  void count_duplicated(EnvelopeType type) noexcept;
  void count_suppressed(EnvelopeType type) noexcept;
  void count_hops(EnvelopeType type, std::uint64_t messages) noexcept;

  /// Folds a per-batch delta into one type's counters and mirrors the
  /// non-zero fields to the obs registry — the batched transport's single
  /// flush point, equivalent to calling the count_* methods field by field.
  void add(EnvelopeType type, const Counters& delta) noexcept;

  void reset() noexcept;

  /// Folds another instance's counts into this one *without* re-mirroring
  /// to the obs registry (the source instance already mirrored at count
  /// time).  Used by the scale engine to merge per-lane transport metrics
  /// back into the main transport at a wave barrier.
  void absorb(const EnvelopeMetrics& other) noexcept;

  const Counters& of(EnvelopeType type) const noexcept;
  std::uint64_t total_sent() const noexcept;
  std::uint64_t total_delivered() const noexcept;
  std::uint64_t total_dropped() const noexcept;
  /// Transmissions spent across every type (duplicates included).
  std::uint64_t total_hop_messages() const noexcept;

  std::string summary() const;

 private:
  std::array<Counters, static_cast<std::size_t>(EnvelopeType::kCount)>
      counts_{};
};

}  // namespace hirep::net
