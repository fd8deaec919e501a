#include "net/event_sim.hpp"

#include <algorithm>

#include "check/invariants.hpp"
#include "obs/metrics.hpp"

namespace hirep::net {

namespace {

obs::Counter& events_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.event_sim.events");
  return c;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("net.event_sim.queue_depth");
  return g;
}

}  // namespace

void EventSim::schedule_at(double at, Callback fn) {
  queue_.push(Event{std::max(at, now_), next_seq_++, std::move(fn)});
  if constexpr (obs::kEnabled) {
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
}

void EventSim::schedule_in(double delay, Callback fn) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

std::size_t EventSim::run() {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    // Moving out of a priority_queue requires the const_cast dance; the
    // element is popped immediately after.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if constexpr (check::kEnabled) {
      check::monotone_clock("net.event_clock.monotone", now_, ev.at);
    }
    now_ = ev.at;
    ev.fn();
    ++executed;
  }
  if constexpr (obs::kEnabled) {
    events_counter().add(executed);
    queue_depth_gauge().set(0);
  }
  return executed;
}

std::size_t EventSim::run_until(double deadline) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if constexpr (check::kEnabled) {
      check::monotone_clock("net.event_clock.monotone", now_, ev.at);
    }
    now_ = ev.at;
    ev.fn();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  if constexpr (obs::kEnabled) {
    events_counter().add(executed);
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  return executed;
}

void EventSim::reset() {
  while (!queue_.empty()) queue_.pop();
  now_ = 0.0;
  next_seq_ = 0;
}

}  // namespace hirep::net
