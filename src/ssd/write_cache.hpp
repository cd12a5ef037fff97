// Volatile DRAM write-back cache inside the SSD.
//
// Commodity drives ACK a write as soon as it lands in DRAM; dirty pages are
// flushed to flash later (we model a hold time — controllers batch and
// coalesce overwrites — plus a bounded-concurrency background flusher). The
// gap between ACK and durability is the paper's headline vulnerability: a
// power fault up to ~700 ms after completion still kills the data (§IV-A),
// and small requests that fit entirely in DRAM produce the FWA failures that
// dominate Fig. 7.
//
// State layout (flat, no node allocation on the IO path):
//   * Line pool: every resident page is a Line in `lines_`; freed lines go on
//     a free list and are reused. A free line has seq 0 and is never dirty.
//   * Index: a power-of-two open-addressing table of u32 line numbers keyed
//     by LPN (Fibonacci hash, linear probing, backward-shift deletion, so no
//     tombstones). It doubles whenever resident pages would exceed half its
//     slots; it is sized by what is resident, never by `capacity_pages`.
//   * Tickets: the dirty and clean FIFOs are power-of-two rings of
//     (line, seq) tickets. Every dirtying draws a fresh seq that is never
//     reused within a session, so a ticket is live exactly when
//     `lines_[line]` still carries its seq: an overwrite, TRIM, eviction or
//     line reuse stales it, and the check is one array read, no index probe.
//     Flush completions validate the same way.
//   * A flush pick takes its ticket out of the dirty ring: the tickets in
//     front of it (fewer than `flush_scramble_window`) move one slot toward
//     the tail and the head advances. The scramble window is then exactly
//     the ring's first tickets.
// Pool order reflects free-list history, not anything canonical: the one
// walk over the pool (on_power_lost) collects dropped LPNs unsorted, and
// last_dropped_lpns() sorts them on its first read after the loss.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ftl/ftl.hpp"
#include "ftl/types.hpp"
#include "obs/fwd.hpp"
#include "sim/simulator.hpp"

namespace pofi::ssd {

struct CacheStats {
  std::uint64_t inserts = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t flushes_completed = 0;
  std::uint64_t clean_evictions = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t dirty_lost_on_power_failure = 0;  ///< cumulative
};

class WriteCache {
 public:
  struct Config {
    std::size_t capacity_pages = 65536;          ///< 256 MiB of 4 KiB pages
    sim::Duration hold_time = sim::Duration::ms(500);  ///< batching delay before flush
    std::uint32_t flush_ways = 8;                ///< concurrent background flushes
    double high_watermark = 0.75;                ///< dirty fraction forcing eager flush
    /// Controllers reorder flushes for striping/coalescing, so a request's
    /// pages do not reach flash atomically: the flusher picks uniformly from
    /// this many ripe head-of-queue candidates (1 = strict FIFO). This is
    /// what turns a fault into *partially applied* requests (data failures)
    /// rather than clean all-or-nothing FWAs.
    std::uint32_t flush_scramble_window = 32;

    bool operator==(const Config&) const = default;
  };

  WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config);

  WriteCache(const WriteCache&) = delete;
  WriteCache& operator=(const WriteCache&) = delete;

  /// Insert (or overwrite) a dirty page. Returns false when the cache is
  /// full of dirty data — the caller must wait for on_space().
  [[nodiscard]] bool insert(ftl::Lpn lpn, std::uint64_t content);

  /// Register a one-shot callback fired when space frees up.
  void on_space(std::function<void()> cb) { space_waiters_.push_back(std::move(cb)); }

  /// Cache lookup for reads (dirty or clean entries both hit).
  [[nodiscard]] std::optional<std::uint64_t> lookup(ftl::Lpn lpn) const;

  /// Drop a page outright (TRIM): discarded data must not be served from
  /// DRAM, dirty or not.
  void invalidate(ftl::Lpn lpn);

  [[nodiscard]] std::size_t dirty_pages() const { return dirty_count_; }
  [[nodiscard]] std::size_t resident_pages() const { return lines_.size() - free_lines_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Drain every dirty page as fast as possible, ignoring hold time. Used
  /// by the PLP emergency path and by host FLUSH commands. `done` fires when
  /// no dirty page remains (or everything was dropped on power loss); the
  /// cache then returns to normal hold-time batching.
  void flush_all(std::function<void()> done);

  /// Power loss: every entry vanishes. Returns how many dirty pages died.
  std::size_t on_power_lost();
  void on_power_good();

  /// LPNs whose dirty (ACKed but unflushed) data died in the most recent
  /// power loss — the cache's declaration of knowingly lost writes. Sorted;
  /// cleared on reset, replaced on each loss. The sort runs here, on the
  /// first read after a loss (campaigns never read the list), so two
  /// threads must not make that first read of one cache at once.
  [[nodiscard]] const std::vector<ftl::Lpn>& last_dropped_lpns() const {
    if (!dropped_sorted_) {
      std::sort(last_dropped_lpns_.begin(), last_dropped_lpns_.end());
      dropped_sorted_ = true;
    }
    return last_dropped_lpns_;
  }

  /// Session reset: back to the just-constructed (unpowered, empty) state
  /// with container capacities retained; the cache RNG stream is re-forked
  /// from the (reseeded) master. Precondition: simulator events drained.
  void reset();

  /// True when no flush is in flight and nothing is stalled on space
  /// (snapshot precondition; the hold-time wake may be armed — it is
  /// captured as a timer).
  [[nodiscard]] bool quiescent() const {
    return in_flight_ == 0 && !emergency_ && space_waiters_.empty();
  }

  /// Whether the hold-time wake is currently scheduled (quiescence census).
  [[nodiscard]] bool wake_timer_armed() const { return sim_.event_pending(wake_event_); }

  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image, sim::TimerRearmer& rearm);

 private:
  struct Line {
    ftl::Lpn lpn = 0;
    std::uint64_t content = 0;
    std::uint64_t seq = 0;  ///< bumped on each dirtying; 0 = free line
    sim::TimePoint dirtied_at;
    bool dirty = false;
  };
  struct Ticket {
    std::uint32_t line;
    std::uint64_t seq;
  };
  static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};

  /// FIFO of tickets over a power-of-two ring. Growth and clear() keep the
  /// buffer's capacity.
  class TicketRing {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
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
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    /// Take out the ticket at position i: the i tickets in front of it move
    /// one slot toward the tail, and the head advances past the freed slot.
    Ticket pick(std::size_t i) {
      const std::size_t mask = buf_.size() - 1;
      const Ticket t = buf_[(head_ + i) & mask];
      for (; i > 0; --i) buf_[(head_ + i) & mask] = buf_[(head_ + i - 1) & mask];
      pop_front();
      return t;
    }
    void clear() { head_ = size_ = 0; }

   private:
    /// Doubles in place: the wrapped prefix [0, head_) moves past the old end,
    /// so the ring stays contiguous from head_ under the new mask.
    void grow() {
      const std::size_t old = buf_.size();
      buf_.resize(old == 0 ? 16 : 2 * old);
      std::copy(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.begin() + static_cast<std::ptrdiff_t>(old));
    }

    std::vector<Ticket> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// A live, ripe ticket of the scramble window and the content to flush.
  struct Candidate {
    std::size_t index;  ///< ring position in dirty_fifo_
    std::uint64_t content;
  };

  [[nodiscard]] bool live_dirty(const Ticket& t) const {
    const Line& l = lines_[t.line];
    return l.dirty && l.seq == t.seq;
  }
  /// Where `lpn`'s probe run starts in the index.
  [[nodiscard]] std::size_t home_slot(ftl::Lpn lpn) const;
  /// Index slot holding `lpn`'s line, or the empty slot where it would go.
  [[nodiscard]] std::size_t find_slot(ftl::Lpn lpn) const;
  /// Line of a resident `lpn`, or kNoLine.
  [[nodiscard]] std::uint32_t line_of(ftl::Lpn lpn) const { return index_[find_slot(lpn)]; }
  /// Allocate and index a line for a non-resident `lpn`.
  std::uint32_t add_line(ftl::Lpn lpn);
  /// Unindex and free a resident line.
  void drop_line(std::uint32_t line);
  void grow_index();
  /// Empty pool, index and rings, keeping every capacity.
  void clear_lines();

  void pump();
  /// The ticket to flush next, or nullopt when the head is not ripe yet (the
  /// hold-time wake is then armed) or no dirty ticket is left.
  [[nodiscard]] std::optional<Candidate> pick_flush_candidate(bool pressured);
  /// Hand one dirty line to the FTL. Returns false when the write failed
  /// synchronously (FTL unpowered or out of pages): the line is re-queued
  /// and the next wake, insert or completion retries it.
  [[nodiscard]] bool issue_flush(std::uint32_t line, std::uint64_t seq, std::uint64_t content);
  void evict_clean_if_needed();
  void notify_space();
  void check_emergency_done();

  sim::Simulator& sim_;
  ftl::Ftl& ftl_;
  Config config_;
  sim::Rng rng_;
  bool powered_ = false;
  bool emergency_ = false;
  std::function<void()> emergency_done_;

  std::vector<Line> lines_;
  std::vector<std::uint32_t> free_lines_;
  std::vector<std::uint32_t> index_;  ///< LPN -> line; kNoLine = empty slot
  unsigned index_shift_ = 0;          ///< 64 - log2(index_.size())
  TicketRing dirty_fifo_;
  TicketRing clean_fifo_;
  std::vector<Candidate> ripe_;  ///< pick scratch, reused across picks
  std::size_t dirty_count_ = 0;
  std::uint32_t in_flight_ = 0;
  bool issuing_ = false;  ///< inside issue_flush's Ftl::write call
  std::uint64_t next_seq_ = 1;
  sim::EventId wake_event_{};
  std::vector<std::function<void()>> space_waiters_;
  mutable std::vector<ftl::Lpn> last_dropped_lpns_;  ///< sorted on first read
  mutable bool dropped_sorted_ = true;
  CacheStats stats_;

  // Observability handles (no-ops unless a registry is attached to sim_).
  obs::MetricId obs_dirty_gauge_ = obs::kNoMetric;
  obs::MetricId obs_flush_latency_ = obs::kNoMetric;
  std::uint32_t obs_span_flush_all_ = 0;
};

/// Copyable cache state at a quiescent boundary.
struct WriteCache::StateImage {
  std::array<std::uint64_t, 4> rng_state{};
  bool powered = false;
  std::vector<Line> lines;
  std::vector<std::uint32_t> free_lines;
  std::vector<std::uint32_t> index;
  unsigned index_shift = 0;
  TicketRing dirty_fifo;
  TicketRing clean_fifo;
  std::size_t dirty_count = 0;
  std::uint64_t next_seq = 1;
  std::vector<ftl::Lpn> last_dropped_lpns;
  CacheStats stats;
  sim::TimerImage wake_timer;
};

inline void WriteCache::snapshot(StateImage& out) const {
  out.rng_state = rng_.state();
  out.powered = powered_;
  out.lines = lines_;
  out.free_lines = free_lines_;
  out.index = index_;
  out.index_shift = index_shift_;
  out.dirty_fifo = dirty_fifo_;
  out.clean_fifo = clean_fifo_;
  out.dirty_count = dirty_count_;
  out.next_seq = next_seq_;
  out.last_dropped_lpns = last_dropped_lpns();
  out.stats = stats_;
  out.wake_timer.armed = sim_.event_pending(wake_event_);
  out.wake_timer.deadline = sim_.event_time(wake_event_);
  out.wake_timer.seq = wake_event_.raw();
}

inline void WriteCache::restore(const StateImage& image, sim::TimerRearmer& rearm) {
  rng_.set_state(image.rng_state);
  powered_ = image.powered;
  emergency_ = false;
  emergency_done_ = nullptr;
  lines_ = image.lines;
  free_lines_ = image.free_lines;
  index_ = image.index;
  index_shift_ = image.index_shift;
  dirty_fifo_ = image.dirty_fifo;
  clean_fifo_ = image.clean_fifo;
  dirty_count_ = image.dirty_count;
  in_flight_ = 0;
  next_seq_ = image.next_seq;
  wake_event_ = {};
  space_waiters_.clear();
  last_dropped_lpns_ = image.last_dropped_lpns;
  dropped_sorted_ = true;
  stats_ = image.stats;
  rearm.enqueue(image.wake_timer, [this, deadline = image.wake_timer.deadline] {
    wake_event_ = sim_.at(deadline, [this] { pump(); });
  });
}

}  // namespace pofi::ssd
