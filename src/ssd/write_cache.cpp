#include "ssd/write_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pofi::ssd {

WriteCache::WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config)
    : sim_(simulator), ftl_(ftl), config_(config), rng_(simulator.fork_rng("write-cache")) {
  if (auto* m = sim_.metrics()) {
    obs_dirty_gauge_ = m->gauge("ssd.cache.dirty_pages");
    obs_dirty_lost_ = m->counter("ssd.cache.dirty_lost");
    // Dirtied-to-durable latency; the hold time dominates, so buckets span
    // sub-millisecond flusher turnaround up to multi-second starvation.
    obs_flush_latency_ = m->histogram(
        "ssd.cache.flush_latency_us",
        {100, 500, 1'000, 5'000, 10'000, 50'000, 100'000, 500'000, 1'000'000, 5'000'000});
    obs_span_flush_all_ = m->trace().intern("ssd.cache.flush_all");
  }
}

bool WriteCache::insert(ftl::Lpn lpn, std::uint64_t content) {
  if (!powered_) return false;
  auto it = entries_.find(lpn);
  if (it == entries_.end()) {
    if (entries_.size() >= config_.capacity_pages) {
      evict_clean_if_needed();
      if (entries_.size() >= config_.capacity_pages) {
        ++stats_.backpressure_stalls;
        return false;  // full of dirty data
      }
    }
    it = entries_.emplace(lpn, Entry{}).first;
  } else if (it->second.dirty) {
    --dirty_count_;  // will re-count below; overwrite coalesces
  }
  Entry& e = it->second;
  e.content = content;
  e.seq = next_seq_++;
  e.dirtied_at = sim_.now();
  e.dirty = true;
  ++dirty_count_;
  dirty_fifo_.push_back(Ticket{lpn, e.seq});
  ++stats_.inserts;
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  pump();
  return true;
}

std::optional<std::uint64_t> WriteCache::lookup(ftl::Lpn lpn) const {
  const auto it = entries_.find(lpn);
  if (it == entries_.end()) return std::nullopt;
  return it->second.content;
}

void WriteCache::invalidate(ftl::Lpn lpn) {
  const auto it = entries_.find(lpn);
  if (it == entries_.end()) return;
  if (it->second.dirty && dirty_count_ > 0) --dirty_count_;
  entries_.erase(it);  // FIFO tickets for it become stale and are skipped
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  notify_space();
}

std::optional<sim::Duration> WriteCache::oldest_dirty_age() const {
  for (const auto& t : dirty_fifo_) {
    const auto it = entries_.find(t.lpn);
    if (it == entries_.end() || !it->second.dirty || it->second.seq != t.seq) continue;
    return sim_.now() - it->second.dirtied_at;
  }
  return std::nullopt;
}

std::optional<WriteCache::Candidate> WriteCache::pick_flush_candidate(bool pressured) {
  // Drop stale tickets off the head first.
  auto head_it = entries_.end();
  while (!dirty_fifo_.empty()) {
    const Ticket& t = dirty_fifo_.front();
    head_it = entries_.find(t.lpn);
    if (head_it != entries_.end() && head_it->second.dirty && head_it->second.seq == t.seq) break;
    dirty_fifo_.pop_front();
  }
  if (dirty_fifo_.empty()) return std::nullopt;

  // Head must be ripe (or the cache pressured) for anything to flush.
  const sim::Duration head_age = sim_.now() - head_it->second.dirtied_at;
  if (!pressured && head_age < config_.hold_time) {
    sim_.cancel(wake_event_);
    wake_event_ = sim_.after(config_.hold_time - head_age, [this] { pump(); });
    return std::nullopt;
  }

  // Pick uniformly among the ripe live tickets in the scramble window, each
  // probed once; the head is live and ripe by the checks above.
  const std::size_t window =
      std::min<std::size_t>(std::max<std::uint32_t>(1, config_.flush_scramble_window),
                            dirty_fifo_.size());
  ripe_.clear();
  ripe_.push_back(Candidate{0, head_it->second.content});
  for (std::size_t i = 1; i < window; ++i) {
    const Ticket& t = dirty_fifo_[i];
    const auto it = entries_.find(t.lpn);
    if (it == entries_.end() || !it->second.dirty || it->second.seq != t.seq) continue;
    if (!pressured && (sim_.now() - it->second.dirtied_at) < config_.hold_time) break;
    ripe_.push_back(Candidate{i, it->second.content});
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
    const auto ticket = dirty_fifo_.begin() + static_cast<std::ptrdiff_t>(pick->index);
    const Ticket t = *ticket;
    dirty_fifo_.erase(ticket);
    issue_flush(t.lpn, t.seq, pick->content);
  }
}

void WriteCache::issue_flush(ftl::Lpn lpn, std::uint64_t seq, std::uint64_t content) {
  ++in_flight_;
  ftl_.write(lpn, content, [this, lpn, seq](bool ok) {
    if (in_flight_ > 0) --in_flight_;
    if (!powered_) return;
    if (ok) {
      const auto it = entries_.find(lpn);
      if (it != entries_.end() && it->second.dirty && it->second.seq == seq) {
        if (auto* m = sim_.metrics()) {
          m->record(obs_flush_latency_, (sim_.now() - it->second.dirtied_at).count_ns() / 1000);
        }
        it->second.dirty = false;
        if (dirty_count_ > 0) --dirty_count_;
        clean_fifo_.push_back(Ticket{lpn, seq});
        ++stats_.flushes_completed;
        if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
        became_clean(lpn);
      }
    } else {
      // Failed program: page stays dirty, retry via a fresh ticket.
      const auto it = entries_.find(lpn);
      if (it != entries_.end() && it->second.dirty && it->second.seq == seq) {
        dirty_fifo_.push_back(Ticket{lpn, seq});
      }
    }
    pump();
    check_emergency_done();
  });
}

void WriteCache::became_clean(ftl::Lpn /*lpn*/) {
  evict_clean_if_needed();
  notify_space();
}

void WriteCache::evict_clean_if_needed() {
  while (entries_.size() >= config_.capacity_pages && !clean_fifo_.empty()) {
    const Ticket t = clean_fifo_.front();
    clean_fifo_.pop_front();
    const auto it = entries_.find(t.lpn);
    if (it == entries_.end() || it->second.dirty || it->second.seq != t.seq) continue;
    entries_.erase(it);
    ++stats_.clean_evictions;
  }
}

void WriteCache::notify_space() {
  if (space_waiters_.empty()) return;
  if (entries_.size() >= config_.capacity_pages) return;
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
    m->add(obs_dirty_lost_, lost);
    m->set(obs_dirty_gauge_, 0);
    m->trace().end(obs_span_flush_all_, sim_.now());  // fault mid-drain
  }
  last_dropped_lpns_.clear();
  for (const auto& [lpn, e] : entries_) {
    if (e.dirty) last_dropped_lpns_.push_back(lpn);
  }
  std::sort(last_dropped_lpns_.begin(), last_dropped_lpns_.end());
  entries_.clear();
  dirty_fifo_.clear();
  clean_fifo_.clear();
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
  entries_.clear();
  dirty_fifo_.clear();
  clean_fifo_.clear();
  dirty_count_ = 0;
  in_flight_ = 0;
  next_seq_ = 1;
  wake_event_ = {};
  space_waiters_.clear();
  last_dropped_lpns_.clear();
  stats_ = CacheStats{};
  rng_ = sim_.fork_rng("write-cache");
}

}  // namespace pofi::ssd
