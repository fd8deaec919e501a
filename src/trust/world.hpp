// The simulated world every architecture runs on: one seeded stream, the
// ground truth drawn from it, a power-law overlay over those nodes, and
// the transport that carries protocol envelopes across the overlay.
//
// hiREP and all five baselines derive from World, so "the same world" in
// a comparison is one constructor, not six copies of it.  Construction
// order is the determinism contract: the stream is seeded with `seed`,
// the ground truth draws from it first, then the overlay's power-law
// graph.  Each architecture passes its own two salts, which seed the
// overlay's latency model and the transport's fault stream apart from the
// world stream (DESIGN.md §15 lists them), so equal options give every
// architecture an identical truth and graph.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/overlay.hpp"
#include "net/transport.hpp"
#include "trust/ground_truth.hpp"
#include "util/rng.hpp"

namespace hirep::trust {

/// The option fields every architecture shares; each architecture's
/// options struct derives from it.
struct WorldOptions {
  std::size_t nodes = 1000;     ///< network size (Table 1)
  double average_degree = 4.0;  ///< neighbors per node (Table 1)
  WorldParams world;            ///< .nodes is overridden by `nodes`
  net::LatencyParams latency;
  /// How protocol envelopes are delivered (instant / latency / faulty).
  net::DeliveryConfig delivery;
  std::uint64_t seed = 1;
};

class World {
 public:
  net::Overlay& overlay() noexcept { return overlay_; }
  const net::Overlay& overlay() const noexcept { return overlay_; }
  /// The typed message path protocol interactions travel through.
  net::Transport& transport() noexcept { return transport_; }
  const net::Transport& transport() const noexcept { return transport_; }
  GroundTruth& truth() noexcept { return truth_; }
  const GroundTruth& truth() const noexcept { return truth_; }
  util::Rng& rng() noexcept { return rng_; }

  /// A uniformly random requestor and a distinct uniformly random provider
  /// over the current population, drawn from the world stream.
  std::pair<net::NodeIndex, net::NodeIndex> random_pair();

 protected:
  World(const WorldOptions& options, std::uint64_t overlay_salt,
        std::uint64_t transport_salt);
  ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Sybil join: one fresh node attached to `degree` distinct random
  /// existing nodes (clamped to [1, population]), with freshly sampled
  /// ground truth.  Returns its index, the old population size.
  net::NodeIndex join(std::size_t degree);

  /// Re-strides a dense row-major n x n per-node-pair matrix to
  /// (n+1) x (n+1) after a join: every cell keeps its (row, column), and
  /// the joined node's row and column start at zero.
  template <typename T>
  static void grow_square(std::vector<T>& cells, std::size_t n) {
    const std::size_t m = n + 1;
    std::vector<T> grown(m * m, T{});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) grown[i * m + j] = cells[i * n + j];
    }
    cells.swap(grown);
  }

  util::Rng rng_;
  GroundTruth truth_;
  net::Overlay overlay_;
  net::Transport transport_;
};

}  // namespace hirep::trust
