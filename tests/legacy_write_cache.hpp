// Frozen tombstone-ring WriteCache: the dirty FIFO and flush pick exactly as
// they shipped before a pick removed its ticket from the ring. A pick left a
// kPicked tombstone in place, and the scramble window counted only unpicked
// tickets. Kept as the *reference model* for the flush-pick differential in
// ssd_cache_test.cpp: both caches run on identical simulators, chips and
// FTLs, and must send the same pages to flash in the same order and leave
// the same RNG state. Observability, snapshots, session reset and space
// waiters are left out; nothing here feeds the pick.
//
// Do not modernise this file; its value is being the old implementation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ftl/ftl.hpp"
#include "sim/simulator.hpp"
#include "ssd/write_cache.hpp"

namespace pofi::ssd::legacy {

class TombstoneWriteCache {
 public:
  using Config = WriteCache::Config;

  TombstoneWriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config)
      : sim_(simulator), ftl_(ftl), config_(config), rng_(simulator.fork_rng("write-cache")) {
    grow_index();
  }

  TombstoneWriteCache(const TombstoneWriteCache&) = delete;
  TombstoneWriteCache& operator=(const TombstoneWriteCache&) = delete;

  [[nodiscard]] bool insert(ftl::Lpn lpn, std::uint64_t content) {
    if (!powered_) return false;
    std::uint32_t line = line_of(lpn);
    if (line == kNoLine) {
      if (resident_pages() >= config_.capacity_pages) {
        evict_clean_if_needed();
        if (resident_pages() >= config_.capacity_pages) {
          ++stats_.backpressure_stalls;
          return false;
        }
      }
      line = add_line(lpn);
    } else if (lines_[line].dirty) {
      --dirty_count_;
    }
    Line& l = lines_[line];
    l.content = content;
    l.seq = next_seq_++;
    l.dirtied_at = sim_.now();
    l.dirty = true;
    ++dirty_count_;
    dirty_fifo_.push_back(Ticket{line, l.seq});
    ++stats_.inserts;
    pump();
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> lookup(ftl::Lpn lpn) const {
    const std::uint32_t line = line_of(lpn);
    if (line == kNoLine) return std::nullopt;
    return lines_[line].content;
  }

  void invalidate(ftl::Lpn lpn) {
    const std::uint32_t line = line_of(lpn);
    if (line == kNoLine) return;
    if (lines_[line].dirty && dirty_count_ > 0) --dirty_count_;
    drop_line(line);
  }

  [[nodiscard]] std::size_t dirty_pages() const { return dirty_count_; }
  [[nodiscard]] std::size_t resident_pages() const { return lines_.size() - free_lines_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

  void flush_all(std::function<void()> done) {
    emergency_ = true;
    emergency_done_ = std::move(done);
    pump();
    check_emergency_done();
  }

  std::size_t on_power_lost() {
    powered_ = false;
    const std::size_t lost = dirty_count_;
    stats_.dirty_lost_on_power_failure += lost;
    last_dropped_lpns_.clear();
    for (const Line& l : lines_) {
      if (l.dirty) last_dropped_lpns_.push_back(l.lpn);
    }
    std::sort(last_dropped_lpns_.begin(), last_dropped_lpns_.end());
    lines_.clear();
    free_lines_.clear();
    std::fill(index_.begin(), index_.end(), kNoLine);
    dirty_fifo_.clear();
    clean_fifo_.clear();
    dirty_count_ = 0;
    in_flight_ = 0;
    emergency_ = false;
    emergency_done_ = nullptr;
    sim_.cancel(wake_event_);
    return lost;
  }

  void on_power_good() {
    powered_ = true;
    emergency_ = false;
  }

  [[nodiscard]] const std::vector<ftl::Lpn>& last_dropped_lpns() const {
    return last_dropped_lpns_;
  }

 private:
  struct Line {
    ftl::Lpn lpn = 0;
    std::uint64_t content = 0;
    std::uint64_t seq = 0;
    sim::TimePoint dirtied_at;
    bool dirty = false;
  };
  struct Ticket {
    std::uint32_t line;
    std::uint64_t seq;  ///< kPicked once the flusher took the ticket
  };
  static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};
  static constexpr std::uint64_t kPicked = 0;

  class TicketRing {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t unpicked() const { return size_ - picked_; }
    [[nodiscard]] const Ticket& operator[](std::size_t i) const {
      return buf_[(head_ + i) & (buf_.size() - 1)];
    }
    [[nodiscard]] const Ticket& front() const { return (*this)[0]; }
    void push_back(Ticket t) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = t;
      ++size_;
    }
    void pop_front() {
      if (front().seq == kPicked) --picked_;
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    Ticket pick(std::size_t i) {
      Ticket& slot = buf_[(head_ + i) & (buf_.size() - 1)];
      const Ticket t = slot;
      slot.seq = kPicked;
      ++picked_;
      return t;
    }
    void clear() { head_ = size_ = picked_ = 0; }

   private:
    void grow() {
      const std::size_t old = buf_.size();
      buf_.resize(old == 0 ? 16 : 2 * old);
      std::copy(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.begin() + static_cast<std::ptrdiff_t>(old));
    }

    std::vector<Ticket> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t picked_ = 0;
  };

  struct Candidate {
    std::size_t index;
    std::uint64_t content;
  };

  [[nodiscard]] bool live_dirty(const Ticket& t) const {
    const Line& l = lines_[t.line];
    return l.dirty && l.seq == t.seq;
  }
  [[nodiscard]] std::size_t home_slot(ftl::Lpn lpn) const {
    return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  [[nodiscard]] std::size_t find_slot(ftl::Lpn lpn) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = home_slot(lpn);
    while (index_[slot] != kNoLine && lines_[index_[slot]].lpn != lpn) slot = (slot + 1) & mask;
    return slot;
  }
  [[nodiscard]] std::uint32_t line_of(ftl::Lpn lpn) const { return index_[find_slot(lpn)]; }

  std::uint32_t add_line(ftl::Lpn lpn) {
    if (2 * (resident_pages() + 1) > index_.size()) grow_index();
    std::uint32_t line;
    if (free_lines_.empty()) {
      line = static_cast<std::uint32_t>(lines_.size());
      lines_.emplace_back();
    } else {
      line = free_lines_.back();
      free_lines_.pop_back();
    }
    lines_[line].lpn = lpn;
    index_[find_slot(lpn)] = line;
    return line;
  }

  void drop_line(std::uint32_t line) {
    Line& l = lines_[line];
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = find_slot(l.lpn);
    for (std::size_t i = (hole + 1) & mask; index_[i] != kNoLine; i = (i + 1) & mask) {
      const std::size_t home = home_slot(lines_[index_[i]].lpn);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole] = kNoLine;
    l.seq = 0;
    l.dirty = false;
    free_lines_.push_back(line);
  }

  void grow_index() {
    const std::size_t slots = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(slots, kNoLine);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::uint32_t line = 0; line < lines_.size(); ++line) {
      if (lines_[line].seq != 0) index_[find_slot(lines_[line].lpn)] = line;
    }
  }

  std::optional<Candidate> pick_flush_candidate(bool pressured) {
    while (!dirty_fifo_.empty() && !live_dirty(dirty_fifo_.front())) dirty_fifo_.pop_front();
    if (dirty_fifo_.empty()) return std::nullopt;

    const Line& head = lines_[dirty_fifo_.front().line];
    const sim::Duration head_age = sim_.now() - head.dirtied_at;
    if (!pressured && head_age < config_.hold_time) {
      sim_.cancel(wake_event_);
      wake_event_ = sim_.after(config_.hold_time - head_age, [this] { pump(); });
      return std::nullopt;
    }

    const std::size_t window =
        std::min<std::size_t>(std::max<std::uint32_t>(1, config_.flush_scramble_window),
                              dirty_fifo_.unpicked());
    ripe_.clear();
    ripe_.push_back(Candidate{0, head.content});
    for (std::size_t i = 1, seen = 1; seen < window; ++i) {
      const Ticket& t = dirty_fifo_[i];
      if (t.seq == kPicked) continue;
      ++seen;
      if (!live_dirty(t)) continue;
      const Line& l = lines_[t.line];
      if (!pressured && (sim_.now() - l.dirtied_at) < config_.hold_time) break;
      ripe_.push_back(Candidate{i, l.content});
    }
    return ripe_[rng_.below(ripe_.size())];
  }

  void pump() {
    if (!powered_) return;
    const bool pressured =
        emergency_ ||
        static_cast<double>(dirty_count_) >=
            config_.high_watermark * static_cast<double>(config_.capacity_pages);
    while (in_flight_ < config_.flush_ways) {
      const auto pick = pick_flush_candidate(pressured);
      if (!pick.has_value()) return;
      const Ticket t = dirty_fifo_.pick(pick->index);
      issue_flush(t.line, t.seq, pick->content);
    }
  }

  void issue_flush(std::uint32_t line, std::uint64_t seq, std::uint64_t content) {
    ++in_flight_;
    ftl_.write(lines_[line].lpn, content, [this, line, seq](bool ok) {
      if (in_flight_ > 0) --in_flight_;
      if (!powered_) return;
      if (line < lines_.size() && live_dirty(Ticket{line, seq})) {
        if (ok) {
          lines_[line].dirty = false;
          if (dirty_count_ > 0) --dirty_count_;
          clean_fifo_.push_back(Ticket{line, seq});
          ++stats_.flushes_completed;
          evict_clean_if_needed();
        } else {
          dirty_fifo_.push_back(Ticket{line, seq});
        }
      }
      pump();
      check_emergency_done();
    });
  }

  void evict_clean_if_needed() {
    while (resident_pages() >= config_.capacity_pages && !clean_fifo_.empty()) {
      const Ticket t = clean_fifo_.front();
      clean_fifo_.pop_front();
      const Line& l = lines_[t.line];
      if (l.dirty || l.seq != t.seq) continue;
      drop_line(t.line);
      ++stats_.clean_evictions;
    }
  }

  void check_emergency_done() {
    if (!emergency_ || emergency_done_ == nullptr) return;
    if (dirty_count_ == 0 && in_flight_ == 0) {
      auto cb = std::move(emergency_done_);
      emergency_done_ = nullptr;
      emergency_ = false;
      cb();
    }
  }

  sim::Simulator& sim_;
  ftl::Ftl& ftl_;
  Config config_;
  sim::Rng rng_;
  bool powered_ = false;
  bool emergency_ = false;
  std::function<void()> emergency_done_;

  std::vector<Line> lines_;
  std::vector<std::uint32_t> free_lines_;
  std::vector<std::uint32_t> index_;
  unsigned index_shift_ = 0;
  TicketRing dirty_fifo_;
  TicketRing clean_fifo_;
  std::vector<Candidate> ripe_;
  std::size_t dirty_count_ = 0;
  std::uint32_t in_flight_ = 0;
  std::uint64_t next_seq_ = 1;
  sim::EventId wake_event_{};
  std::vector<ftl::Lpn> last_dropped_lpns_;
  CacheStats stats_;
};

}  // namespace pofi::ssd::legacy
