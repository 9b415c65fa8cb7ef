#include "sim/event_queue.h"

#include <cassert>

namespace hyrd::sim {

void EventQueue::schedule_at(common::SimDuration when, EventHandler* handler) {
  assert(handler != nullptr);
  if (when < now_) when = now_;
  heap_.push({when, next_seq_++, handler});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // Copied out before the pop: the handler may push and regrow the heap.
  const HeapItem item = heap_.top();
  heap_.pop();
  assert(item.when >= now_ && "virtual time must be monotonic");
  now_ = item.when;
  ++dispatched_;
  item.handler->on_event(*this, now_);
  return true;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace hyrd::sim
