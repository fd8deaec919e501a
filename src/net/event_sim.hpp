// Discrete-event simulation core: a time-ordered queue of callbacks with a
// deterministic tie-break (FIFO by schedule order), used by the timed
// experiments (Figure 8) and the onion router's latency accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace hirep::net {

class EventSim {
 public:
  using Callback = std::function<void()>;

  double now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now, else clamped to now).
  void schedule_at(double at, Callback fn);
  /// Schedules `fn` `delay` from the current time (delay < 0 clamps to 0).
  void schedule_in(double delay, Callback fn);

  std::size_t pending() const noexcept { return queue_.size(); }

  /// Runs events until the queue drains. Returns events executed.
  std::size_t run();
  /// Runs events with time <= deadline. Returns events executed.
  std::size_t run_until(double deadline);

  /// Drops all pending events and resets the clock to zero.
  void reset();

 private:
  struct Event {
    double at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hirep::net
