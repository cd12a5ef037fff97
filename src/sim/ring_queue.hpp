// Growable FIFO ring buffer with power-of-two capacity.
//
// std::deque allocates a fresh chunk every few pushes when the element is
// large, which would put an allocation on every flash-op submission. The
// ring reuses one flat buffer: after warm-up, push/pop never allocate.
// Elements are built in place (emplace_back hands out the vacant back slot)
// and read at the front, so a NandChip op is constructed once and never
// copied while it waits or runs. FIFO order is identical to deque
// push_back/pop_front.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pofi::sim {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Appends a slot holding a default-constructed T and returns it. The
  /// reference is valid until the next emplace_back (which may grow).
  T& emplace_back() {
    if (count_ == buf_.size()) grow();
    T& slot = buf_[(head_ + count_) & (buf_.size() - 1)];
    ++count_;
    return slot;
  }

  [[nodiscard]] T& front() { return buf_[head_]; }

  /// Removes the front element, releasing what it holds.
  void pop_front() {
    buf_[head_] = T{};  // drop captured resources eagerly; keeps vacant slots default
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  /// Discards all queued elements (their resources are released) but keeps
  /// the buffer, so the queue stays allocation-free after a power cycle.
  void clear() {
    for (std::size_t i = 0; i < count_; ++i) {
      buf_[(head_ + i) & (buf_.size() - 1)] = T{};
    }
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t old_cap = buf_.size();
    std::vector<T> bigger(old_cap == 0 ? kInitialCapacity : old_cap * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (old_cap - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> buf_;  ///< capacity; always a power of two (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pofi::sim
