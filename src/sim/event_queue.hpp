// Deterministic discrete-event queue.
//
// Events are (time, sequence, callback). Ties on time break by insertion
// order, which makes simulations reproducible: two events scheduled for the
// same instant always fire in the order they were scheduled.
//
// Implementation: an indexed binary min-heap over a slot arena. Each event
// lives in one slot; the heap orders slot indices by (time, seq), and every
// slot knows its heap position. Cancellation removes the event from the heap
// in O(log n) and frees its slot and captured state at once, so the heap and
// the arena hold only pending events. Slots are recycled through an
// intrusive free list, so steady-state scheduling allocates nothing, and the
// callback's inline storage (InplaceFunction) keeps captures off the heap
// too. No hash lookups anywhere on the schedule/pop/cancel path.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/time.hpp"

namespace pofi::sim {

/// Inline capture budget for event callbacks. Sized for the fattest capture
/// in the tree (FTL journal/GC continuations); the InplaceFunction
/// static_assert names any future overflow at compile time.
inline constexpr std::size_t kEventCallbackCapacity = 120;

/// Handle for cancelling a scheduled event. Carries the event's sequence
/// number (identity) and its arena slot (O(1) cancellation); a recycled
/// slot's seq mismatch makes stale handles harmless.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return seq_; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t s, std::uint32_t slot) : seq_(s), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class EventQueue {
 public:
  using Callback = InplaceFunction<void(), kEventCallbackCapacity>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` to run at absolute time `at`. Returns a cancellable id.
  EventId schedule_at(TimePoint at, Callback cb);

  /// Cancel a pending event: it leaves the heap, and the callback and
  /// everything it captured are destroyed, before this returns. Cancelling an
  /// already-fired or unknown id is a harmless no-op (returns false).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_[0].time;
  }

  /// True while `id` names a scheduled, not-yet-fired, not-cancelled event.
  /// Stale ids (recycled slot, different seq) read false, like cancel().
  [[nodiscard]] bool pending(EventId id) const {
    return id.valid() && id.slot_ < slots_.size() && slots_[id.slot_].seq == id.raw();
  }

  /// Scheduled firing time of a pending event; TimePoint::max() otherwise.
  [[nodiscard]] TimePoint time_of(EventId id) const {
    return pending(id) ? heap_[pos_[id.slot_]].time : TimePoint::max();
  }

  /// Pop and return the earliest event. Precondition: !empty().
  struct Fired {
    TimePoint time;
    Callback cb;
  };
  Fired pop();

  /// Drop everything (used when tearing an experiment down). All callback
  /// state is freed here.
  void clear();

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Slot {
    std::uint64_t seq = 0;  ///< 0 while on the free list
    Callback cb;
  };

  /// Heap entry: the (time, seq) sort key is held here, not in the slot, so
  /// sift comparisons walk contiguous memory instead of dereferencing two
  /// random slots per level (the heap array is hot; the arena is not).
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Strict (time, seq) order — identical tie-breaking to the PR-1 kernel.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Store `e` at heap position `pos` and record the position in pos_.
  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove heap_[pos]: the last entry refills the hole and sifts either way.
  void remove_at(std::size_t pos);
  /// Destroy the slot's callback and push the slot onto the free list.
  void release_slot(std::uint32_t idx);

  std::vector<Slot> slots_;  ///< arena; index = slot id
  /// Parallel to slots_: the heap position of a pending slot, the next free
  /// slot (or kNil) of a free one.
  std::vector<std::uint32_t> pos_;
  std::vector<HeapEntry> heap_;     ///< binary min-heap keyed by (time, seq)
  std::uint32_t free_head_ = kNil;  ///< intrusive free list through pos_
  std::uint64_t next_seq_ = 1;
};

}  // namespace pofi::sim
