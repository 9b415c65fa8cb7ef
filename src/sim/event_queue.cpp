#include "sim/event_queue.h"

#include <cassert>

namespace hyrd::sim {

namespace {

constexpr std::uint64_t kLow32 = 0xffffffffull;

EventId make_id(std::uint32_t slot, std::uint64_t seq) {
  return ((seq & kLow32) << 32) | (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

EventId EventQueue::schedule_at(common::SimDuration when,
                                EventHandler* handler) {
  assert(handler != nullptr);
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Entry& e = slab_[slot];
  e.handler = handler;
  e.seq = next_seq_++;
  ++live_;
  heap_.push({when, e.seq, slot});
  return make_id(slot, e.seq);
}

EventId EventQueue::schedule_in(common::SimDuration delay,
                                EventHandler* handler) {
  return schedule_at(delay > 0 ? now_ + delay : now_, handler);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot_plus_one = id & kLow32;
  if (slot_plus_one == 0 || slot_plus_one > slab_.size()) return false;
  Entry& e = slab_[slot_plus_one - 1];
  if (e.handler == nullptr || (e.seq & kLow32) != (id >> 32)) return false;
  // Flag, don't release: the heap item still references the slot.
  if (e.cancelled) return false;
  e.cancelled = true;
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  Entry& e = slab_[slot];
  e.handler = nullptr;
  e.cancelled = false;
  free_.push_back(slot);
  --live_;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const HeapItem item = heap_.top();
    heap_.pop();
    Entry& e = slab_[item.slot];
    assert(e.handler != nullptr && e.seq == item.seq && "heap item without entry");
    if (e.cancelled) {
      release(item.slot);
      continue;
    }
    assert(item.when >= now_ && "virtual time must be monotonic");
    now_ = item.when;
    ++dispatched_;
    e.handler->on_event(*this, now_);
    release(item.slot);
    return true;
  }
  return false;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace hyrd::sim
