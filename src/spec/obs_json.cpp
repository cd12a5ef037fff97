#include "spec/obs_json.hpp"

#include "spec/codec.hpp"
#include "spec/fields.hpp"

namespace pofi::spec {

namespace {

constexpr double kDoubleLo = -1e300;
constexpr double kDoubleHi = 1e300;

using Snap = obs::Snapshot;

[[nodiscard]] std::int64_t read_i64(const Value& v, const std::string& key) {
  if (v.kind() == Value::Kind::kUInt && v.as_uint() <= 0x7FFFFFFFFFFFFFFFULL) {
    return static_cast<std::int64_t>(v.as_uint());
  }
  if (v.kind() == Value::Kind::kInt) return v.as_int();
  throw Error("expected a 64-bit signed integer", v.line, v.col, key);
}

/// A signed nanosecond timestamp: the one kind the snapshot needs beyond
/// fields.hpp's.
template <typename S>
struct Nanos {
  std::string_view key;
  std::int64_t S::*member;
  void read(S& s, const std::string& k, const Value& v) const { s.*member = read_i64(v, k); }
  void write(const S& s, Value& out) const { out.set(key, s.*member); }
};

using fields::Integer;
using fields::Items;
using fields::Text;

constexpr fields::List kCounter{"counter",
                                Text{"name", &Snap::Counter::name},
                                Integer{"value", &Snap::Counter::value}};

constexpr fields::List kGauge{"gauge",
                              Text{"name", &Snap::Gauge::name},
                              Integer{"last", &Snap::Gauge::last},
                              Integer{"high_water", &Snap::Gauge::high_water}};

constexpr fields::List kSpanFields{"span",
                                   Text{"name", &Snap::Span::name},
                                   Text{"parent", &Snap::Span::parent},
                                   Nanos{"begin_ns", &Snap::Span::begin_ns},
                                   Nanos{"end_ns", &Snap::Span::end_ns}};

/// A top-level span (empty parent) is written without "parent".
struct SpanCodec {
  static Value write(const Snap::Span& s) {
    Value v = kSpanFields.write(s);
    if (s.parent.empty()) fields::erase(v, "parent");
    return v;
  }
  static void read(Snap::Span& s, const Value& v) { kSpanFields.read(s, v); }
};

/// Histograms and series are hand-written: their arrays hold plain numbers,
/// not list-coded objects, so no field kind fits them.
struct HistogramCodec {
  static Value write(const Snap::Histogram& h) {
    Value v = Value::object();
    v.set("name", h.name);
    Value bounds = Value::array();
    for (const auto b : h.bounds) bounds.push_back(b);
    v.set("bounds", std::move(bounds));
    Value counts = Value::array();
    for (const auto c : h.counts) counts.push_back(c);
    v.set("counts", std::move(counts));
    v.set("total", h.total);
    return v;
  }

  static void read(Snap::Histogram& h, const Value& v) {
    read_members(v, "histogram", [&](const std::string& key, const Value& m) {
      if (key == "name") {
        h.name = read_string(m, key);
      } else if (key == "bounds") {
        if (!m.is_array()) throw Error("expected an array", m.line, m.col, key);
        for (const Value& b : m.items()) h.bounds.push_back(read_i64(b, key));
      } else if (key == "counts") {
        if (!m.is_array()) throw Error("expected an array", m.line, m.col, key);
        for (const Value& c : m.items()) h.counts.push_back(read_u64(c, key));
      } else if (key == "total") {
        h.total = read_u64(m, key);
      } else {
        return false;
      }
      return true;
    });
  }
};

/// Series samples travel as compact parallel arrays: sample counts run to
/// thousands per series.
struct SeriesCodec {
  static Value write(const Snap::Series& s) {
    Value v = Value::object();
    v.set("name", s.name);
    Value t = Value::array();
    Value val = Value::array();
    for (const auto& sample : s.samples) {
      t.push_back(sample.t_ns);
      val.push_back(sample.value);
    }
    v.set("t_ns", std::move(t));
    v.set("values", std::move(val));
    v.set("dropped", s.dropped);
    return v;
  }

  static void read(Snap::Series& s, const Value& v) {
    std::vector<std::int64_t> t;
    std::vector<double> values;
    read_members(v, "series", [&](const std::string& key, const Value& m) {
      if (key == "name") {
        s.name = read_string(m, key);
      } else if (key == "t_ns") {
        if (!m.is_array()) throw Error("expected an array", m.line, m.col, key);
        for (const Value& x : m.items()) t.push_back(read_i64(x, key));
      } else if (key == "values") {
        if (!m.is_array()) throw Error("expected an array", m.line, m.col, key);
        for (const Value& x : m.items()) {
          values.push_back(read_double(x, key, kDoubleLo, kDoubleHi));
        }
      } else if (key == "dropped") {
        s.dropped = read_u64(m, key);
      } else {
        return false;
      }
      return true;
    });
    if (t.size() != values.size()) {
      throw Error("series t_ns/values length mismatch", v.line, v.col, "values");
    }
    s.samples.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      s.samples.push_back(Snap::Sample{t[i], values[i]});
    }
  }
};

constexpr HistogramCodec kHistogram;
constexpr SeriesCodec kSeries;
constexpr SpanCodec kSpan;

/// Every section is omitted when empty, so an empty snapshot is "{}".
constexpr fields::List kSnapshot{"metrics snapshot",
                                 Items{"counters", &Snap::counters, &kCounter},
                                 Items{"gauges", &Snap::gauges, &kGauge},
                                 Items{"histograms", &Snap::histograms, &kHistogram},
                                 Items{"series", &Snap::series, &kSeries},
                                 Items{"spans", &Snap::spans, &kSpan},
                                 Integer{"spans_dropped", &Snap::spans_dropped}};

}  // namespace

Value to_json(const Snap& snap) {
  Value v = kSnapshot.write(snap);
  if (snap.counters.empty()) fields::erase(v, "counters");
  if (snap.gauges.empty()) fields::erase(v, "gauges");
  if (snap.histograms.empty()) fields::erase(v, "histograms");
  if (snap.series.empty()) fields::erase(v, "series");
  if (snap.spans.empty()) fields::erase(v, "spans");
  if (snap.spans_dropped == 0) fields::erase(v, "spans_dropped");
  return v;
}

Snap snapshot_from_json(const Value& v) {
  Snap snap;
  kSnapshot.read(snap, v);
  return snap;
}

}  // namespace pofi::spec
