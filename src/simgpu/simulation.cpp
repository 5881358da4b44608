#include "simgpu/simulation.hpp"

#include <algorithm>
#include <limits>

#include "simgpu/checker.hpp"

namespace algas::sim {

void Simulation::schedule(Actor* a, SimTime when) {
  if (check_) check_->on_schedule(a, a->name(), now_, when);
  when = std::max(when, now_);
  if (a->pending_time_ >= 0.0 && a->pending_time_ <= when) {
    return;  // an earlier (or equal) wake-up is already queued
  }
  ++a->token_;
  a->pending_time_ = when;
  queue_.push(Event{when, seq_++, a, a->token_});
}

bool Simulation::pop_next(Event& ev) {
  while (!queue_.empty()) {
    ev = queue_.top();
    queue_.pop();
    if (ev.token == ev.actor->token_) return true;  // live entry
    ++stale_events_;
  }
  return false;
}

SimTime Simulation::next_event_time() {
  while (!queue_.empty()) {
    const Event& ev = queue_.top();
    if (ev.token == ev.actor->token_) return ev.time;
    queue_.pop();
    ++stale_events_;
  }
  return std::numeric_limits<SimTime>::infinity();
}

bool Simulation::step_one() {
  Event ev;
  if (!pop_next(ev)) return false;
  if (check_) check_->on_event(ev.actor, ev.actor->name(), now_, ev.time);
  now_ = ev.time;
  ev.actor->pending_time_ = -1.0;
  ++events_processed_;
  ev.actor->step(*this);
  return true;
}

void Simulation::notify_drain() {
  if (check_) check_->on_drain(now_);
}

void Simulation::run() {
  while (step_one()) {
  }
  notify_drain();
}

}  // namespace algas::sim
