#include "ssd/write_cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/metrics.hpp"

namespace pofi::ssd {

namespace {

/// Initial index slots: power of two, and what the first growth doubles.
constexpr std::size_t kMinIndexSlots = 16;

}  // namespace

WriteCache::WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config)
    : sim_(simulator), ftl_(ftl), config_(config), rng_(simulator.fork_rng("write-cache")) {
  if (auto* m = sim_.metrics()) {
    obs_dirty_gauge_ = m->gauge("ssd.cache.dirty_pages");
    m->counter_source("ssd.cache.dirty_lost", &stats_.dirty_lost_on_power_failure);
    // Dirtied-to-durable latency; the hold time dominates, so buckets span
    // sub-millisecond flusher turnaround up to multi-second starvation.
    obs_flush_latency_ = m->histogram(
        "ssd.cache.flush_latency_us",
        {100, 500, 1'000, 5'000, 10'000, 50'000, 100'000, 500'000, 1'000'000, 5'000'000});
    obs_span_flush_all_ = m->trace().intern("ssd.cache.flush_all");
  }
  grow_index();
}

std::size_t WriteCache::home_slot(ftl::Lpn lpn) const {
  // Fibonacci hashing: the top bits of the product mix every LPN bit, so
  // strided LPNs spread as well as sequential ones.
  return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

std::size_t WriteCache::find_slot(ftl::Lpn lpn) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home_slot(lpn);
  while (index_[slot] != kNoLine && lines_[index_[slot]].lpn != lpn) slot = (slot + 1) & mask;
  return slot;
}

std::uint32_t WriteCache::add_line(ftl::Lpn lpn) {
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

void WriteCache::drop_line(std::uint32_t line) {
  Line& l = lines_[line];
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home slot lies cyclically after the hole.
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
  l.seq = 0;  // stales every ticket still naming this line
  l.dirty = false;
  free_lines_.push_back(line);
}

void WriteCache::grow_index() {
  const std::size_t slots = index_.empty() ? kMinIndexSlots : 2 * index_.size();
  index_.assign(slots, kNoLine);
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (std::uint32_t line = 0; line < lines_.size(); ++line) {
    if (lines_[line].seq != 0) index_[find_slot(lines_[line].lpn)] = line;
  }
}

void WriteCache::clear_lines() {
  lines_.clear();
  free_lines_.clear();
  std::fill(index_.begin(), index_.end(), kNoLine);
  dirty_fifo_.clear();
  clean_fifo_.clear();
}

bool WriteCache::insert(ftl::Lpn lpn, std::uint64_t content) {
  if (!powered_) return false;
  std::uint32_t line = line_of(lpn);
  if (line == kNoLine) {
    if (resident_pages() >= config_.capacity_pages) {
      evict_clean_if_needed();
      if (resident_pages() >= config_.capacity_pages) {
        ++stats_.backpressure_stalls;
        return false;  // full of dirty data
      }
    }
    line = add_line(lpn);
  } else if (lines_[line].dirty) {
    --dirty_count_;  // will re-count below; overwrite coalesces
  }
  Line& l = lines_[line];
  l.content = content;
  l.seq = next_seq_++;
  l.dirtied_at = sim_.now();
  l.dirty = true;
  ++dirty_count_;
  dirty_fifo_.push_back(Ticket{line, l.seq});
  ++stats_.inserts;
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  pump();
  return true;
}

std::optional<std::uint64_t> WriteCache::lookup(ftl::Lpn lpn) const {
  const std::uint32_t line = line_of(lpn);
  if (line == kNoLine) return std::nullopt;
  return lines_[line].content;
}

void WriteCache::invalidate(ftl::Lpn lpn) {
  const std::uint32_t line = line_of(lpn);
  if (line == kNoLine) return;
  if (lines_[line].dirty && dirty_count_ > 0) --dirty_count_;
  drop_line(line);  // its tickets become stale and are skipped
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  notify_space();
}

std::optional<WriteCache::Candidate> WriteCache::pick_flush_candidate(bool pressured) {
  // Drop stale tickets off the head first.
  while (!dirty_fifo_.empty() && !live_dirty(dirty_fifo_.front())) dirty_fifo_.pop_front();
  if (dirty_fifo_.empty()) return std::nullopt;

  // Head must be ripe (or the cache pressured) for anything to flush.
  const Line& head = lines_[dirty_fifo_.front().line];
  const sim::Duration head_age = sim_.now() - head.dirtied_at;
  if (!pressured && head_age < config_.hold_time) {
    sim_.cancel(wake_event_);
    wake_event_ = sim_.after(config_.hold_time - head_age, [this] { pump(); });
    return std::nullopt;
  }

  // Pick uniformly among the ripe live tickets in the scramble window, the
  // ring's first tickets (stale ones included); the head is live and ripe by
  // the checks above.
  const std::size_t window =
      std::min<std::size_t>(std::max<std::uint32_t>(1, config_.flush_scramble_window),
                            dirty_fifo_.size());
  ripe_.clear();
  ripe_.push_back(Candidate{0, head.content});
  for (std::size_t i = 1; i < window; ++i) {
    const Ticket& t = dirty_fifo_[i];
    if (!live_dirty(t)) continue;
    const Line& l = lines_[t.line];
    if (!pressured && (sim_.now() - l.dirtied_at) < config_.hold_time) break;
    ripe_.push_back(Candidate{i, l.content});
  }
  return ripe_[rng_.below(ripe_.size())];
}

void WriteCache::pump() {
  if (!powered_) return;
  const bool pressured =
      emergency_ ||
      static_cast<double>(dirty_count_) >=
          config_.high_watermark * static_cast<double>(config_.capacity_pages);
  while (in_flight_ < config_.flush_ways) {
    const auto pick = pick_flush_candidate(pressured);
    if (!pick.has_value()) return;
    const Ticket t = dirty_fifo_.pick(pick->index);
    if (!issue_flush(t.line, t.seq, pick->content)) return;
  }
}

bool WriteCache::issue_flush(std::uint32_t line, std::uint64_t seq, std::uint64_t content) {
  ++in_flight_;
  issuing_ = true;
  ftl_.write(lines_[line].lpn, content, [this, line, seq](bool ok) {
    if (in_flight_ > 0) --in_flight_;
    const bool refused = std::exchange(issuing_, false);  // completed inside issue_flush
    if (!powered_) return;
    // A power loss after the flush was issued may have emptied the pool;
    // otherwise the line must still carry this dirtying's seq.
    if (line < lines_.size() && live_dirty(Ticket{line, seq})) {
      if (ok) {
        Line& l = lines_[line];
        if (auto* m = sim_.metrics()) {
          m->record(obs_flush_latency_, (sim_.now() - l.dirtied_at).count_ns() / 1000);
        }
        l.dirty = false;
        if (dirty_count_ > 0) --dirty_count_;
        clean_fifo_.push_back(Ticket{line, seq});
        ++stats_.flushes_completed;
        if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
        evict_clean_if_needed();
        notify_space();
      } else {
        // Failed program: page stays dirty, retry via a fresh ticket.
        dirty_fifo_.push_back(Ticket{line, seq});
      }
    }
    // A refused write must not re-pick in the same stack: the same failure
    // would recurse without bound.
    if (refused) return;
    pump();
    check_emergency_done();
  });
  const bool issued = issuing_;
  issuing_ = false;
  return issued;
}

void WriteCache::evict_clean_if_needed() {
  while (resident_pages() >= config_.capacity_pages && !clean_fifo_.empty()) {
    const Ticket t = clean_fifo_.front();
    clean_fifo_.pop_front();
    const Line& l = lines_[t.line];
    if (l.dirty || l.seq != t.seq) continue;
    drop_line(t.line);
    ++stats_.clean_evictions;
  }
}

void WriteCache::notify_space() {
  if (space_waiters_.empty()) return;
  if (resident_pages() >= config_.capacity_pages) return;
  auto waiters = std::move(space_waiters_);
  space_waiters_.clear();
  for (auto& w : waiters) w();
}

void WriteCache::flush_all(std::function<void()> done) {
  emergency_ = true;
  emergency_done_ = std::move(done);
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_flush_all_, sim_.now());
  pump();
  check_emergency_done();
}

void WriteCache::check_emergency_done() {
  if (!emergency_ || emergency_done_ == nullptr) return;
  if (dirty_count_ == 0 && in_flight_ == 0) {
    auto cb = std::move(emergency_done_);
    emergency_done_ = nullptr;
    emergency_ = false;  // back to normal hold-time batching
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_flush_all_, sim_.now());
    cb();
  }
}

std::size_t WriteCache::on_power_lost() {
  powered_ = false;
  const std::size_t lost = dirty_count_;
  stats_.dirty_lost_on_power_failure += lost;
  if (auto* m = sim_.metrics()) {
    m->set(obs_dirty_gauge_, 0);
    m->trace().end(obs_span_flush_all_, sim_.now());  // fault mid-drain
  }
  // Walk the pool, not the dirty tickets: a page whose flush is in flight
  // is still dirty but its ticket is already picked. Pool order follows
  // free-list history; last_dropped_lpns() sorts into the canonical order.
  last_dropped_lpns_.clear();
  for (const Line& l : lines_) {
    if (l.dirty) last_dropped_lpns_.push_back(l.lpn);
  }
  dropped_sorted_ = false;
  clear_lines();
  dirty_count_ = 0;
  in_flight_ = 0;
  emergency_ = false;
  emergency_done_ = nullptr;
  space_waiters_.clear();
  sim_.cancel(wake_event_);
  return lost;
}

void WriteCache::on_power_good() {
  powered_ = true;
  emergency_ = false;
}

void WriteCache::reset() {
  powered_ = false;
  emergency_ = false;
  emergency_done_ = nullptr;
  clear_lines();
  dirty_count_ = 0;
  in_flight_ = 0;
  next_seq_ = 1;
  wake_event_ = {};
  space_waiters_.clear();
  last_dropped_lpns_.clear();
  dropped_sorted_ = true;
  stats_ = CacheStats{};
  rng_ = sim_.fork_rng("write-cache");
}

}  // namespace pofi::ssd
