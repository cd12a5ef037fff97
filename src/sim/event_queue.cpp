#include "sim/event_queue.hpp"

#include <utility>

namespace pofi::sim {

EventId EventQueue::schedule_at(TimePoint at, Callback cb) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = pos_[idx];
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    pos_.push_back(kNil);
  }
  Slot& s = slots_[idx];
  s.seq = next_seq_++;
  s.cb = std::move(cb);

  heap_.push_back(HeapEntry{at, s.seq, idx});
  sift_up(heap_.size() - 1);
  return EventId{s.seq, idx};
}

bool EventQueue::cancel(EventId id) {
  // Only a still-pending event can be cancelled; a fired event or a stale
  // handle onto a recycled slot fails the seq check and is a no-op.
  if (!pending(id)) return false;
  remove_at(pos_[id.slot_]);
  release_slot(id.slot_);
  return true;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, moving);
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the removed entry was the last one
  heap_[pos] = last;
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  s.seq = 0;
  pos_[idx] = free_head_;
  free_head_ = idx;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapEntry top = heap_[0];
  remove_at(0);
  Fired fired{top.time, std::move(slots_[top.slot].cb)};
  release_slot(top.slot);
  return fired;
}

void EventQueue::clear() {
  slots_.clear();  // destroys every callback and its captures
  pos_.clear();
  heap_.clear();
  free_head_ = kNil;
  // next_seq_ keeps counting: EventIds from before the clear stay invalid
  // (their slots are gone) and tie-break order never restarts mid-run.
}

}  // namespace pofi::sim
