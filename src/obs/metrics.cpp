#include "obs/metrics.hpp"

#include <algorithm>

namespace pofi::obs {

// ---------------------------------------------------------------- TraceLog

TraceLog::TraceLog(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
  open_.reserve(32);
  names_.reserve(32);
}

std::uint32_t TraceLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void TraceLog::begin(std::uint32_t name_id, sim::TimePoint now) {
  if (name_id >= names_.size()) return;
  Open o;
  o.name_id = name_id;
  o.parent_id = open_.empty() ? kNoName : open_.back().name_id;
  o.begin_ns = now.count_ns();
  open_.push_back(o);
}

void TraceLog::end(std::uint32_t name_id, sim::TimePoint now) {
  // Innermost open span with this name; tolerate unmatched ends so that
  // multi-exit instrumentation sites can close defensively.
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].name_id != name_id) continue;
    Done d;
    d.name_id = open_[i].name_id;
    d.parent_id = open_[i].parent_id;
    d.begin_ns = open_[i].begin_ns;
    d.end_ns = now.count_ns();
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    if (ring_.size() < capacity_) {
      ring_.push_back(d);
    } else {
      ring_[head_] = d;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
    ++completed_;
    return;
  }
}

void TraceLog::append_to(Snapshot& snap) const {
  const auto emit = [&](const Done& d) {
    Snapshot::Span s;
    s.name = names_[d.name_id];
    s.parent = d.parent_id == kNoName ? std::string() : names_[d.parent_id];
    s.begin_ns = d.begin_ns;
    s.end_ns = d.end_ns;
    snap.spans.push_back(std::move(s));
  };
  // Once the ring wrapped, head_ points at the oldest surviving span.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    emit(ring_[(head_ + i) % ring_.size()]);
  }
  snap.spans_dropped += dropped_;
}

void TraceLog::reset() {
  open_.clear();
  ring_.clear();
  head_ = 0;
  completed_ = 0;
  dropped_ = 0;
}

// ---------------------------------------------------------- MetricRegistry

MetricRegistry::MetricRegistry(std::size_t trace_capacity)
    : slots_(std::make_unique<Slot[]>(kMaxMetrics)), trace_(trace_capacity) {}

MetricId MetricRegistry::register_slot(std::string_view name, Kind kind,
                                       std::initializer_list<std::int64_t> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (slots_[i].name == name) {
      // Idempotent registration: the chips of an array or the workers of a
      // runner all resolve to one shared slot. A kind clash is a programming
      // error; degrade to a silent no-op handle rather than crash a run.
      return slots_[i].kind == kind ? i : kNoMetric;
    }
  }
  if (count_ == kMaxMetrics) return kNoMetric;
  Slot& s = slots_[count_];
  s.name.assign(name);
  s.kind = kind;
  s.bucket_count = 0;
  for (const std::int64_t b : bounds) {
    if (s.bucket_count == kMaxBuckets) break;
    s.bounds[s.bucket_count++] = b;
  }
  const MetricId id = count_++;
  count_hint_.store(count_, std::memory_order_release);
  return id;
}

MetricId MetricRegistry::counter(std::string_view name) {
  return register_slot(name, Kind::kCounter, {});
}

void MetricRegistry::counter_source(std::string_view name, const std::uint64_t* source) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sources_.push_back(Source{std::string(name), source});
}

MetricId MetricRegistry::gauge(std::string_view name) {
  return register_slot(name, Kind::kGauge, {});
}

MetricId MetricRegistry::histogram(std::string_view name,
                                   std::initializer_list<std::int64_t> upper_bounds) {
  return register_slot(name, Kind::kHistogram, upper_bounds);
}

MetricId MetricRegistry::series(std::string_view name, std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i]->name == name) return static_cast<MetricId>(i) | kSeriesBit;
  }
  auto slot = std::make_unique<SeriesSlot>();
  slot->name.assign(name);
  slot->capacity = std::max<std::size_t>(1, capacity);
  slot->samples.reserve(slot->capacity);
  series_.push_back(std::move(slot));
  return static_cast<MetricId>(series_.size() - 1) | kSeriesBit;
}

void MetricRegistry::sample(MetricId id, sim::TimePoint t, double value) {
  if ((id & kSeriesBit) == 0 || id == kNoMetric) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t idx = id & ~kSeriesBit;
  if (idx >= series_.size()) return;
  SeriesSlot& s = *series_[idx];
  if (s.samples.size() == s.capacity) {
    ++s.dropped;
    return;
  }
  s.samples.push_back(Snapshot::Sample{t.count_ns(), value});
}

Snapshot MetricRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (std::uint32_t i = 0; i < count_; ++i) {
    const Slot& s = slots_[i];
    switch (s.kind) {
      case Kind::kCounter: {
        Snapshot::Counter c;
        c.name = s.name;
        c.value = s.value.load(std::memory_order_relaxed);
        snap.counters.push_back(std::move(c));
        break;
      }
      case Kind::kGauge: {
        Snapshot::Gauge g;
        g.name = s.name;
        g.last = s.value.load(std::memory_order_relaxed);
        g.high_water = s.high_water.load(std::memory_order_relaxed);
        snap.gauges.push_back(std::move(g));
        break;
      }
      case Kind::kHistogram: {
        Snapshot::Histogram h;
        h.name = s.name;
        h.bounds.assign(s.bounds.begin(), s.bounds.begin() + s.bucket_count);
        h.counts.resize(s.bucket_count + 1);
        h.total = 0;
        for (std::uint32_t b = 0; b <= s.bucket_count; ++b) {
          h.counts[b] = s.buckets[b].load(std::memory_order_relaxed);
          h.total += h.counts[b];  // record() keeps no separate total
        }
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  for (const Source& src : sources_) {
    snap.counters.push_back(Snapshot::Counter{src.name, *src.value});
  }
  for (const auto& s : series_) {
    Snapshot::Series out;
    out.name = s->name;
    out.samples = s->samples;
    out.dropped = s->dropped;
    snap.series.push_back(std::move(out));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  // One entry per name: the sources of several dies, and a source with a
  // pushed slot of its name, sum into it.
  std::vector<Snapshot::Counter> merged;
  merged.reserve(snap.counters.size());
  for (Snapshot::Counter& c : snap.counters) {
    if (!merged.empty() && merged.back().name == c.name) {
      merged.back().value += c.value;
    } else {
      merged.push_back(std::move(c));
    }
  }
  snap.counters = std::move(merged);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  std::sort(snap.series.begin(), snap.series.end(), by_name);
  trace_.append_to(snap);
  return snap;
}

void MetricRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    Slot& s = slots_[i];
    s.value.store(0, std::memory_order_relaxed);
    s.high_water.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
  for (auto& s : series_) {
    s->samples.clear();  // capacity stays reserved
    s->dropped = 0;
  }
  trace_.reset();
}

std::uint64_t MetricRegistry::value_of(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Source& src : sources_) {
    if (src.name == name) total += *src.value;
  }
  for (std::uint32_t i = 0; i < count_; ++i) {
    const Slot& s = slots_[i];
    if (s.name != name) continue;
    if (s.kind != Kind::kHistogram) return total + s.value.load(std::memory_order_relaxed);
    for (std::uint32_t b = 0; b <= s.bucket_count; ++b) {
      total += s.buckets[b].load(std::memory_order_relaxed);
    }
    return total;
  }
  return total;
}

void TraceLog::snapshot(StateImage& out) const {
  out.open = open_;
  out.ring = ring_;
  out.head = head_;
  out.completed = completed_;
  out.dropped = dropped_;
}

void TraceLog::restore(const StateImage& image) {
  open_ = image.open;
  ring_ = image.ring;
  head_ = image.head;
  completed_ = image.completed;
  dropped_ = image.dropped;
}

void MetricRegistry::snapshot_values(ValueImage& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out.slots.resize(count_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    const Slot& s = slots_[i];
    ValueImage::SlotValues& v = out.slots[i];
    v.value = s.value.load(std::memory_order_relaxed);
    v.high_water = s.high_water.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < v.buckets.size(); ++b) {
      v.buckets[b] = s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  out.series.resize(series_.size());
  for (std::size_t i = 0; i < series_.size(); ++i) {
    out.series[i].samples = series_[i]->samples;
    out.series[i].dropped = series_[i]->dropped;
  }
  trace_.snapshot(out.trace);
}

void MetricRegistry::restore_values(const ValueImage& image) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    Slot& s = slots_[i];
    // Slots registered after the capture rewind to zero (same as a fresh
    // registration at the captured instant would have held).
    static const ValueImage::SlotValues kZero{};
    const ValueImage::SlotValues& v = i < image.slots.size() ? image.slots[i] : kZero;
    s.value.store(v.value, std::memory_order_relaxed);
    s.high_water.store(v.high_water, std::memory_order_relaxed);
    for (std::size_t b = 0; b < v.buckets.size(); ++b) {
      s.buckets[b].store(v.buckets[b], std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i < image.series.size()) {
      series_[i]->samples = image.series[i].samples;
      series_[i]->dropped = image.series[i].dropped;
    } else {
      series_[i]->samples.clear();
      series_[i]->dropped = 0;
    }
  }
  trace_.restore(image.trace);
}

}  // namespace pofi::obs
