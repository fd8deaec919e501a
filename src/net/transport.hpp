// The typed transport layer: every protocol interaction (trust requests,
// responses, reports, agent-list walks, key rotation, probes, baseline
// polls) travels as an explicit Envelope, hop by hop along a node path,
// scheduled on the net::EventSim clock.
//
// Delivery behaviour is a pluggable DeliveryPolicy:
//   * InstantDelivery — zero delay, no loss: one transmission per hop, the
//     message counts the paper's figures are made of;
//   * LatencyDelivery — per-hop delay from the overlay's LatencyModel;
//   * FaultyDelivery  — seeded per-hop drop / duplicate / extra-delay
//     probabilities, independent of the simulation RNG stream.
//
// A dropped hop loses the envelope (the transmission is still counted —
// the message left the sender); callers observe `delivered == false` and
// fall back exactly as the paper's §3.4.3 maintenance prescribes.  All
// outcomes are tallied per EnvelopeType in net::EnvelopeMetrics, the one
// traffic ledger: every message any architecture counts is an envelope.
//
// Batched data path (DESIGN.md §11): call sites that fan out many
// independent envelopes fill an EnvelopeBatch — payload bytes interned in
// the transport's PayloadArena, paths pooled — and hand it to
// send_batch(), which runs the delivery engine per envelope in a tight
// loop and flushes the metric deltas once per batch.  Envelopes are
// processed strictly one at a time, in push order, each drained to
// completion before the next begins, so a batch is *defined* to be
// byte-identical to the same sends issued sequentially: the policy sees
// the exact same on_hop() call sequence, which keeps every policy RNG
// stream aligned and the fig5/fig6 goldens bit-identical (pinned by
// tests/net/transport_batch_test.cpp).  The single-envelope send() is the
// batch-of-one wrapper over the same engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "net/arena.hpp"
#include "net/event_sim.hpp"
#include "net/metrics.hpp"
#include "net/overlay.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::net {

/// One typed protocol message in flight.  `payload` is a zero-copy view
/// into the sender's buffer (or the transport arena for batched sends),
/// valid for the duration of the delivery; policies never read it.
struct Envelope {
  EnvelopeType type = EnvelopeType::kProbe;
  NodeIndex origin = kInvalidNode;       ///< first sender
  NodeIndex destination = kInvalidNode;  ///< final receiver (path end)
  std::uint64_t id = 0;                  ///< per-transport sequence number
  std::span<const std::uint8_t> payload; ///< wire bytes (empty in kFast mode)
};

/// A policy's verdict for one hop transmission.
struct HopDecision {
  bool drop = false;       ///< the copy is lost in transit
  bool duplicate = false;  ///< the hop is transmitted twice (both copies are
                           ///< counted on the wire; the second one lands and
                           ///< is suppressed at the receiver by envelope id,
                           ///< so handler side effects apply exactly once)
  double delay_ms = 0.0;   ///< sim-clock delay before the hop lands
};

class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;
  /// Called once per hop, in transmission order.  Implementations must be
  /// deterministic for a given construction seed and call sequence.
  virtual HopDecision on_hop(const Envelope& envelope, NodeIndex from,
                             NodeIndex to) = 0;
  virtual const char* name() const noexcept = 0;
};

/// Zero delay, no loss — the counted-send behaviour of the kFast sweeps.
class InstantDelivery final : public DeliveryPolicy {
 public:
  HopDecision on_hop(const Envelope&, NodeIndex, NodeIndex) override {
    return {};
  }
  const char* name() const noexcept override { return "instant"; }
};

/// Per-hop propagation + processing delay from the overlay's LatencyModel.
class LatencyDelivery final : public DeliveryPolicy {
 public:
  explicit LatencyDelivery(const LatencyModel* model) : model_(model) {}
  HopDecision on_hop(const Envelope&, NodeIndex from, NodeIndex to) override;
  const char* name() const noexcept override { return "latency"; }

 private:
  const LatencyModel* model_;
};

struct FaultParams {
  double drop_rate = 0.0;       ///< per-hop probability the copy is lost
  double duplicate_rate = 0.0;  ///< per-hop probability of a second copy
  double delay_min_ms = 0.0;    ///< uniform extra per-hop delay range
  double delay_max_ms = 0.0;
};

/// Seeded per-hop drop/delay/duplicate injection.  Owns its own Rng so
/// fault outcomes never perturb the simulation's main random stream: the
/// same (seed, params) world sees the same transactions with or without
/// faults, only the deliveries differ.
class FaultyDelivery final : public DeliveryPolicy {
 public:
  FaultyDelivery(FaultParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}
  HopDecision on_hop(const Envelope&, NodeIndex, NodeIndex) override;
  const char* name() const noexcept override { return "faulty"; }
  const FaultParams& params() const noexcept { return params_; }

 private:
  FaultParams params_;
  util::Rng rng_;
};

enum class DeliveryPolicyKind { kInstant, kLatency, kFaulty };

/// Declarative policy selection, embeddable in system option structs.
struct DeliveryConfig {
  DeliveryPolicyKind policy = DeliveryPolicyKind::kInstant;
  FaultParams faults;  ///< used by kFaulty
};

/// "instant" | "latency" | "faulty" -> kind (nullopt on anything else).
std::optional<DeliveryPolicyKind> policy_kind_by_name(std::string_view name);

/// Builds the configured policy; `latency` is required for kLatency and
/// `seed` seeds kFaulty's private Rng.
std::unique_ptr<DeliveryPolicy> make_policy(const DeliveryConfig& config,
                                            const LatencyModel* latency,
                                            std::uint64_t seed);

/// What the sender learns about a transfer once the event queue drains.
struct DeliveryReceipt {
  bool delivered = false;
  NodeIndex destination = kInvalidNode;
  std::uint64_t messages = 0;  ///< transmissions performed (incl. duplicates)
  std::uint32_t hops = 0;      ///< hops completed (landed at their receiver)
  double start_ms = 0.0;       ///< sim-clock time the send entered the wire
  double completion_ms = 0.0;  ///< sim-clock time the destination was reached
  util::Bytes payload;         ///< what the destination received (delivered only)
};

class Transport;

/// One contiguous run of a grouped drain: the shared key and the entry
/// indices carrying it, in original (stable) order.  The span points into
/// the batch's ordering buffer and stays valid until its next drain_groups.
struct ReceiptGroup {
  std::uint64_t key = 0;
  std::span<const std::uint32_t> entries;
};

/// A set of independent envelopes built up by one call site and carried by
/// Transport::send_batch in one pass.  Payload bytes are interned into the
/// owning transport's PayloadArena at push() time (zero per-envelope heap
/// traffic); paths share one pooled vector.  After send_batch() the
/// receipts — parallel to push order — stay readable until the next
/// clear()/push(); the batch itself is reusable (capacity retained).
class EnvelopeBatch {
 public:
  /// Bind to the arena the payload bytes intern into; use
  /// Transport::make_batch() to bind to a transport's own arena.
  explicit EnvelopeBatch(PayloadArena* arena);

  /// Forgets entries and receipts and re-captures the arena position.
  void clear();

  /// Appends one envelope; returns its entry index.  `path` and `payload`
  /// are copied (into the pool / arena), so the caller's buffers may die.
  std::size_t push(EnvelopeType type, NodeIndex sender,
                   std::span<const NodeIndex> path,
                   std::span<const std::uint8_t> payload = {});

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Receipts parallel to push order; valid after send_batch().
  std::span<const DeliveryReceipt> receipts() const noexcept {
    return receipts_;
  }
  const DeliveryReceipt& receipt(std::size_t i) const {
    return receipts_.at(i);
  }

  /// Visits every *delivered* receipt grouped by `key_of(entry, receipt)`
  /// (ascending key, stable by entry order within a key), one ReceiptGroup
  /// per distinct key, so a consumer touching per-key state absorbs
  /// contiguous runs (e.g. per-destination absorption, key = destination).
  /// Only valid for order-insensitive consumers — per-key state is fine, a
  /// cross-entry float accumulation is not.
  void drain_groups(
      const std::function<std::uint64_t(std::size_t, const DeliveryReceipt&)>&
          key_of,
      const std::function<void(const ReceiptGroup&)>& fn) const;

 private:
  friend class Transport;

  struct Entry {
    EnvelopeType type = EnvelopeType::kProbe;
    NodeIndex sender = kInvalidNode;
    std::uint32_t path_offset = 0;
    std::uint32_t path_size = 0;
    const std::uint8_t* payload = nullptr;  ///< arena memory (stable slabs)
    std::uint32_t payload_size = 0;
  };

  PayloadArena* arena_;
  PayloadArena::Mark mark_{};  ///< arena position this batch builds above
  std::vector<Entry> entries_;
  std::vector<NodeIndex> path_pool_;
  std::vector<DeliveryReceipt> receipts_;
  mutable std::vector<std::uint32_t> order_;  ///< grouped-drain scratch
};

class Transport {
 public:
  /// Builds the configured policy over `overlay`, which supplies the graph
  /// that floods and walks expand over and, for kLatency, the latency
  /// model.  `seed` seeds kFaulty's private fault stream.
  Transport(Overlay* overlay, const DeliveryConfig& config, std::uint64_t seed);
  Transport(Overlay* overlay, std::unique_ptr<DeliveryPolicy> policy);
  /// Teardown runs the envelope-conservation invariant: every envelope this
  /// transport accepted must be delivered, dropped, or still in flight.
  ~Transport();

  Overlay& overlay() noexcept { return *overlay_; }
  EventSim& sim() noexcept { return sim_; }
  DeliveryPolicy& policy() noexcept { return *policy_; }
  /// Swaps the delivery policy mid-run (churn/fault scenarios).
  void set_policy(std::unique_ptr<DeliveryPolicy> policy);

  /// The slab arena batched payloads intern into.  The scale engine resets
  /// each lane's arena at the wave barrier (absorb_envelopes time).
  PayloadArena& arena() noexcept { return arena_; }
  /// An empty batch bound to this transport's arena.
  EnvelopeBatch make_batch() { return EnvelopeBatch(&arena_); }

  EnvelopeMetrics& envelopes() noexcept { return envelopes_; }
  const EnvelopeMetrics& envelopes() const noexcept { return envelopes_; }

  /// Folds `other`'s per-envelope counters into this transport and zeroes
  /// them, so a lane transport used for one execution wave tears down empty
  /// (its conservation invariant holds trivially) while the primary
  /// transport's totals match what a serial run would have accumulated.
  void absorb_envelopes(Transport& other) noexcept {
    envelopes_.absorb(other.envelopes_);
    other.envelopes_.reset();
  }

  /// Carries one typed envelope from `sender` hop-by-hop along `path`
  /// (successive receivers; path.back() is the destination).  Each hop is
  /// an EventSim event at now + policy delay; the queue drains before the
  /// receipt returns, so call sites stay synchronous while the message
  /// path itself is event-driven.  Every transmission is counted under
  /// `type` in envelopes().  Implemented as a batch-of-one over the
  /// batched engine.
  DeliveryReceipt send(EnvelopeType type, NodeIndex sender,
                       const std::vector<NodeIndex>& path,
                       util::Bytes payload = {});

  /// Carries every envelope in `batch`, strictly in push order, each one
  /// drained to completion before the next starts — byte-identical to the
  /// equivalent sequence of send() calls (the determinism contract; see
  /// header comment).  Per-type metric deltas accumulate locally and
  /// flush once at the end; the batch's arena bytes are released
  /// (receipts keep their own copies of delivered payloads).  Returns
  /// batch.receipts().
  std::span<const DeliveryReceipt> send_batch(EnvelopeBatch& batch);

 private:
  /// Local metric deltas for one send()/send_batch() flush.
  struct Acc;

  /// The delivery engine for one envelope: runs the policy per hop in a
  /// tight loop while hops land instantly, falling back to the EventSim
  /// chain from the first hop with a positive delay.
  void transmit_one(EnvelopeType type, NodeIndex sender,
                    std::span<const NodeIndex> path,
                    std::span<const std::uint8_t> payload,
                    DeliveryReceipt& receipt, Acc& acc);
  void transmit_delayed(const Envelope& envelope,
                        std::span<const NodeIndex> path, std::size_t start,
                        const HopDecision& first, DeliveryReceipt& receipt,
                        Acc& acc);
  void flush(const Acc& acc);

  Overlay* overlay_;
  EventSim sim_;
  std::unique_ptr<DeliveryPolicy> policy_;
  EnvelopeMetrics envelopes_;
  PayloadArena arena_;
  std::uint64_t next_id_ = 1;
};

}  // namespace hirep::net
