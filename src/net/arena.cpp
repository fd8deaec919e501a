#include "net/arena.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"

namespace hirep::net {

namespace {

struct ArenaCells {
  obs::Gauge* bytes_in_use;
  obs::Counter* slab_allocs;
  obs::Counter* slab_bytes;
  obs::Counter* resets;
};

const ArenaCells& arena_cells() {
  static const ArenaCells cells = [] {
    auto& reg = obs::Registry::global();
    return ArenaCells{&reg.gauge("net.arena.bytes_in_use"),
                      &reg.counter("net.arena.slab_allocs"),
                      &reg.counter("net.arena.slab_bytes"),
                      &reg.counter("net.arena.resets")};
  }();
  return cells;
}

}  // namespace

PayloadArena::PayloadArena(std::size_t slab_bytes)
    : slab_bytes_(slab_bytes == 0 ? kDefaultSlabBytes : slab_bytes) {}

void PayloadArena::add_slab(std::size_t at_least) {
  // `target` is where the next allocation will look for room.  Prefer a
  // retained slab (left behind by rewind/reset) when one fits; otherwise
  // insert a fresh slab there.  Swaps/inserts only ever touch indices
  // beyond the live region, so marks taken earlier stay valid.
  const std::size_t target = slabs_.empty() ? 0 : active_ + 1;
  for (std::size_t i = target; i < slabs_.size(); ++i) {
    if (slabs_[i].size >= at_least) {
      std::swap(slabs_[i], slabs_[target]);
      return;
    }
  }
  const std::size_t size = std::max(slab_bytes_, at_least);
  Slab slab;
  // Not zero-filled: a slab's pages count toward RSS only once payload
  // bytes are written into them.
  slab.data = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  slab.size = size;
  slabs_.insert(slabs_.begin() + static_cast<std::ptrdiff_t>(target),
                std::move(slab));
  ++slab_allocs_;
  if constexpr (obs::kEnabled) {
    arena_cells().slab_allocs->add();
    arena_cells().slab_bytes->add(size);
  }
}

std::span<std::uint8_t> PayloadArena::allocate(std::size_t n) {
  if (n == 0) return {};
  if (slabs_.empty()) {
    add_slab(n);
  } else if (slabs_[active_].size - used_ < n) {
    if (active_ + 1 >= slabs_.size() || slabs_[active_ + 1].size < n) {
      add_slab(n);
    }
    ++active_;
    used_ = 0;
  }
  std::uint8_t* p = slabs_[active_].data.get() + used_;
  used_ += n;
  note_occupancy();
  return {p, n};
}

std::span<const std::uint8_t> PayloadArena::store(
    std::span<const std::uint8_t> data) {
  if (data.empty()) return {};
  auto dst = allocate(data.size());
  std::memcpy(dst.data(), data.data(), data.size());
  return dst;
}

void PayloadArena::rewind(Mark m) noexcept {
  active_ = m.slab;
  used_ = m.used;
  if constexpr (obs::kEnabled) {
    arena_cells().bytes_in_use->set(
        static_cast<std::int64_t>(bytes_in_use()));
  }
}

void PayloadArena::reset() noexcept {
  active_ = 0;
  used_ = 0;
  ++resets_;
  if constexpr (obs::kEnabled) {
    arena_cells().resets->add();
    arena_cells().bytes_in_use->set(0);
  }
}

std::size_t PayloadArena::bytes_in_use() const noexcept {
  std::size_t sum = used_;
  for (std::size_t i = 0; i < active_ && i < slabs_.size(); ++i) {
    sum += slabs_[i].size;
  }
  return sum;
}

void PayloadArena::note_occupancy() noexcept {
  const std::size_t in_use = bytes_in_use();
  if (in_use > high_water_) high_water_ = in_use;
  if constexpr (obs::kEnabled) {
    arena_cells().bytes_in_use->set(static_cast<std::int64_t>(in_use));
  }
}

}  // namespace hirep::net
