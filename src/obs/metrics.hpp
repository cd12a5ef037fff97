// Deterministic observability core: a dependency-free metric registry plus
// a causal trace log, designed so that instrumenting the simulation can
// never perturb it.
//
// Invariants the whole subsystem rests on:
//   * Instrumentation only READS simulation state and mutates obs-private
//     storage. No RNG draws, no event scheduling, no sim mutation — the
//     DeterminismGolden hashes must be identical with and without a registry.
//   * Each event is counted once. A layer counter lives in the layer's Stats
//     struct (reset by the layer's reset(), carried in its StateImage) and is
//     registered as a counter source; snapshot() reads it. Pushed slots are
//     for what a struct field cannot hold: gauges (the high-water mark needs
//     every update), histograms, series, spans, and counters several threads
//     write (the runner's).
//   * The hot path (add/set/record) is allocation-free and lock-free:
//     relaxed atomics into a fixed slot arena sized at construction.
//     Registration (rare) takes a mutex and is idempotent by name, so the
//     workers of a CampaignRunner can all register the same metric
//     concurrently and aggregate into one slot; the counter sources of the
//     N dies of a ChipArray sum into one snapshot entry.
//   * Memory is bounded: kMaxMetrics slots, kMaxBuckets histogram buckets,
//     per-series sample capacity with drop-counting, ring-buffer spans.
//
// The only gate is whether a registry was attached to the simulator
// (platform config `metrics: true`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/fwd.hpp"
#include "obs/snapshot.hpp"
#include "sim/time.hpp"

namespace pofi::obs {

// MetricId / kNoMetric live in obs/fwd.hpp: the interned handle for a
// registered metric. Instrument sites cache these; kNoMetric makes every
// operation a no-op, so a failed registration (arena full, kind clash)
// degrades to silence instead of crashing a run.

/// Causal begin/end spans keyed on simulated time. Single-writer: only the
/// (single-threaded) simulation thread touches a TraceLog. Completed spans
/// live in a ring buffer — once full, the oldest completed span is evicted
/// and counted as dropped. `end` with no matching open span is a tolerated
/// no-op so multi-exit code paths can close defensively.
class TraceLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  explicit TraceLog(std::size_t capacity = kDefaultCapacity);

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Intern a span name once (e.g. in a constructor); begin/end take the id.
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  void begin(std::uint32_t name_id, sim::TimePoint now);
  void end(std::uint32_t name_id, sim::TimePoint now);

  [[nodiscard]] std::uint64_t completed_count() const { return completed_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  [[nodiscard]] std::size_t open_count() const { return open_.size(); }

  /// Append completed spans (chronological) into a snapshot.
  void append_to(Snapshot& snap) const;

  /// Session reset: drop all open and completed spans but keep the interned
  /// name table, so span ids cached in component constructors stay valid
  /// across a pooled-session reset. Buffer capacity is retained.
  void reset();

  /// Copyable span state (open stack + completed ring); the interned name
  /// table is registration, not state, exactly as in reset().
  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  struct Open {
    std::uint32_t name_id = 0;
    std::uint32_t parent_id = 0;  ///< kNoName when top-level
    std::int64_t begin_ns = 0;
  };
  struct Done {
    std::uint32_t name_id = 0;
    std::uint32_t parent_id = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

  std::vector<std::string> names_;
  std::vector<Open> open_;  ///< stack of in-flight spans
  std::vector<Done> ring_;  ///< completed spans; wraps at capacity_
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next overwrite position once the ring is full
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The registry: counters, gauges (with high-water mark), fixed-bucket
/// histograms and time-series samplers, all keyed by interned name.
class MetricRegistry {
 public:
  static constexpr std::size_t kMaxMetrics = 512;
  static constexpr std::size_t kMaxBuckets = 16;
  static constexpr std::size_t kDefaultSeriesCapacity = 1024;

  explicit MetricRegistry(std::size_t trace_capacity = TraceLog::kDefaultCapacity);

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // --- Registration (mutex-guarded, idempotent by name) ---------------------
  [[nodiscard]] MetricId counter(std::string_view name);
  /// Pulled counter: `source` is a field its owner already counts in (a
  /// layer's Stats struct). The registry never writes it. snapshot() and
  /// value_of() read every source on the calling thread — the thread that
  /// drives the simulation, or one that joined it — and sum the sources and
  /// any pushed counter slot that share a name (the dies of a ChipArray).
  /// Sources carry no value state: reset_values() and the value images
  /// leave them alone, because the owner resets and restores its Stats.
  /// `source` must outlive every snapshot() and value_of() of this registry.
  void counter_source(std::string_view name, const std::uint64_t* source);
  [[nodiscard]] MetricId gauge(std::string_view name);
  /// `upper_bounds` are inclusive and must be ascending; at most kMaxBuckets.
  /// Values above the last bound land in an implicit overflow bucket.
  [[nodiscard]] MetricId histogram(std::string_view name,
                                   std::initializer_list<std::int64_t> upper_bounds);
  /// Bounded (t, value) sampler; once `capacity` samples are stored further
  /// ones are counted as dropped.
  [[nodiscard]] MetricId series(std::string_view name,
                                std::size_t capacity = kDefaultSeriesCapacity);

  // --- Hot path (lock-free, allocation-free) --------------------------------
  void add(MetricId id, std::uint64_t delta = 1) {
    if (delta == 0) return;
    if (id >= count_hint_.load(std::memory_order_relaxed)) return;
    slots_[id].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(MetricId id, std::uint64_t value) {
    if (id >= count_hint_.load(std::memory_order_relaxed)) return;
    Slot& s = slots_[id];
    s.value.store(value, std::memory_order_relaxed);
    std::uint64_t seen = s.high_water.load(std::memory_order_relaxed);
    while (seen < value &&
           !s.high_water.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  /// One atomic RMW per sample: the bucket alone is incremented and the
  /// histogram total is derived as the bucket sum at snapshot time, keeping
  /// the per-IO cost at a single contended cacheline touch.
  void record(MetricId id, std::int64_t value) {
    if (id >= count_hint_.load(std::memory_order_relaxed)) return;
    Slot& s = slots_[id];
    std::uint32_t b = 0;
    while (b < s.bucket_count && value > s.bounds[b]) ++b;
    s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  }

  /// Series sampling is mutex-guarded (samples carry doubles and sim time;
  /// rate is a handful per power cycle, never per-IO).
  void sample(MetricId id, sim::TimePoint t, double value);

  [[nodiscard]] TraceLog& trace() { return trace_; }

  // --- Read-out -------------------------------------------------------------
  /// Freeze everything into a name-sorted, plain-data snapshot.
  [[nodiscard]] Snapshot snapshot() const;
  /// Session reset: zero every pushed counter/gauge/histogram/series value
  /// but keep all registrations (names, kinds, bounds, capacities, sources),
  /// so MetricId handles cached by components survive. A reset registry
  /// snapshots identically to a freshly-built one once the components reset
  /// their Stats and re-run.
  void reset_values();
  /// Test/assertion convenience: current value of a counter (pushed slot
  /// plus sources), gauge or histogram total by name; 0 when unknown.
  [[nodiscard]] std::uint64_t value_of(std::string_view name) const;

  /// Value-level capture: every pushed counter/gauge/histogram/series value
  /// plus the trace log, excluding registrations (names, kinds, bounds,
  /// sources) exactly as reset_values() leaves them alone. Restoring rewinds
  /// the registry to the captured instant; slots registered after the
  /// capture are zeroed.
  struct ValueImage;
  void snapshot_values(ValueImage& out) const;
  void restore_values(const ValueImage& image);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Slot {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> high_water{0};
    std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets{};
    std::array<std::int64_t, kMaxBuckets> bounds{};
    std::uint32_t bucket_count = 0;
    Kind kind = Kind::kCounter;
    std::string name;
  };
  struct Source {
    std::string name;
    const std::uint64_t* value = nullptr;
  };
  struct SeriesSlot {
    std::string name;
    std::size_t capacity = 0;
    std::vector<Snapshot::Sample> samples;  ///< reserved up front
    std::uint64_t dropped = 0;
  };
  static constexpr MetricId kSeriesBit = 0x80000000u;

  [[nodiscard]] MetricId register_slot(std::string_view name, Kind kind,
                                       std::initializer_list<std::int64_t> bounds);

  // Slots live in a fixed arena (atomics are immovable); `count_` only grows.
  // Hot-path bound checks read `count_hint_` (relaxed mirror of count_): an
  // id is only ever used after its registration returned, so the slot it
  // names is always published by then.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint32_t> count_hint_{0};
  std::uint32_t count_ = 0;
  std::vector<std::unique_ptr<SeriesSlot>> series_;
  std::vector<Source> sources_;
  mutable std::mutex mutex_;
  TraceLog trace_;
};

struct TraceLog::StateImage {
  std::vector<Open> open;
  std::vector<Done> ring;
  std::size_t head = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
};

struct MetricRegistry::ValueImage {
  struct SlotValues {
    std::uint64_t value = 0;
    std::uint64_t high_water = 0;
    std::array<std::uint64_t, kMaxBuckets + 1> buckets{};
  };
  struct SeriesValues {
    std::vector<Snapshot::Sample> samples;
    std::uint64_t dropped = 0;
  };
  std::vector<SlotValues> slots;
  std::vector<SeriesValues> series;
  TraceLog::StateImage trace;
};

}  // namespace pofi::obs
