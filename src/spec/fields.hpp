// Field lists: one entry per spec key, walked by both the reader and the
// writer of a struct's JSON codec.
//
//   constexpr fields::List kGeometry{"nand geometry",
//       fields::Integer{"page_size_bytes", &nand::Geometry::page_size_bytes, 512},
//       fields::Integer{"planes", &nand::Geometry::planes, 1, 64}};
//
//   Value to_json(const nand::Geometry& g) { return kGeometry.write(g); }
//   void apply_json(nand::Geometry& g, const Value& v) { kGeometry.read(g, v); }
//
// An entry names its key, its member and its reader kind (integer or real
// with bounds, flag, text, millis/micros duration, choice over the enum's
// sim::enum_names table, nested struct, items array) and nothing else. The
// writer emits the entries in list order; the reader walks the JSON object
// in file order, so the first bad member names its key and line, and a key
// that no entry (and no hand-written extra) claims is "unknown key in
// <context>".
//
// Special cases stay beside their list: a key omitted at its default is
// written by the list and then dropped with fields::erase, cross-field checks
// run after read(), and a key no kind fits goes through read()'s `extra`
// handler and is written by hand. A codec with a shape of its own may add a
// kind: any struct with a `key`, read(S&, key, Value) and write(const S&,
// Value&).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/enum_names.hpp"
#include "spec/codec.hpp"

namespace pofi::spec {

/// Parse one of an enum's spellings (sim::enum_names); the error lists every
/// legal one.
template <typename E>
[[nodiscard]] E read_enum(const Value& v, const std::string& key) {
  if (!v.is_string()) throw Error("expected a string", v.line, v.col, key);
  E out{};
  if (sim::enum_from_name(v.as_string(), out)) return out;
  std::string msg = "expected one of";
  const char* sep = " ";
  for (const auto& n : enum_names(E{})) {
    msg += sep;
    msg += '"';
    msg += n.name;
    msg += '"';
    sep = ", ";
  }
  throw Error(msg + "; got \"" + v.as_string() + '"', v.line, v.col, key);
}

/// Walk an object's members in file order: `handler(key, value)` returns
/// false for a key it does not know, which raises the unknown-key error.
template <typename Handler>
void read_members(const Value& v, std::string_view context, Handler&& handler) {
  if (!v.is_object()) throw Error("expected an object", v.line, v.col, std::string(context));
  for (const auto& [key, member] : v.members()) {
    if (!handler(key, member)) {
      throw Error("unknown key in " + std::string(context), member.line, member.col, key);
    }
  }
}

namespace fields {

/// Bounds are inclusive; they default to the member type's range.
template <typename S, typename M>
struct Integer {
  std::string_view key;
  M S::*member;
  std::uint64_t lo = 0;
  std::uint64_t hi = std::numeric_limits<M>::max();
  void read(S& s, const std::string& k, const Value& v) const {
    s.*member = static_cast<M>(read_u64(v, k, lo, hi));
  }
  void write(const S& s, Value& out) const { out.set(key, Value(s.*member)); }
};

template <typename S>
struct Real {
  std::string_view key;
  double S::*member;
  double lo;
  double hi;
  void read(S& s, const std::string& k, const Value& v) const {
    s.*member = read_double(v, k, lo, hi);
  }
  void write(const S& s, Value& out) const { out.set(key, s.*member); }
};

template <typename S>
struct Flag {
  std::string_view key;
  bool S::*member;
  void read(S& s, const std::string& k, const Value& v) const { s.*member = read_bool(v, k); }
  void write(const S& s, Value& out) const { out.set(key, s.*member); }
};

template <typename S>
struct Text {
  std::string_view key;
  std::string S::*member;
  void read(S& s, const std::string& k, const Value& v) const { s.*member = read_string(v, k); }
  void write(const S& s, Value& out) const { out.set(key, s.*member); }
};

/// Durations carry their unit in the key ("_ms" / "_us").
template <typename S>
struct Millis {
  std::string_view key;
  sim::Duration S::*member;
  void read(S& s, const std::string& k, const Value& v) const {
    s.*member = read_duration_ms(v, k);
  }
  void write(const S& s, Value& out) const { out.set(key, duration_to_ms(s.*member)); }
};

template <typename S>
struct Micros {
  std::string_view key;
  sim::Duration S::*member;
  void read(S& s, const std::string& k, const Value& v) const {
    s.*member = read_duration_us(v, k);
  }
  void write(const S& s, Value& out) const { out.set(key, duration_to_us(s.*member)); }
};

template <typename S, typename E>
struct Choice {
  std::string_view key;
  E S::*member;
  void read(S& s, const std::string& k, const Value& v) const { s.*member = read_enum<E>(v, k); }
  void write(const S& s, Value& out) const { out.set(key, sim::enum_name(s.*member)); }
};

/// A nested struct with its own codec (apply_json / to_json in codec.hpp).
template <typename S, typename N>
struct Nested {
  std::string_view key;
  N S::*member;
  void read(S& s, const std::string&, const Value& v) const { apply_json(s.*member, v); }
  void write(const S& s, Value& out) const { out.set(key, to_json(s.*member)); }
};

/// An array whose elements `*codec` reads and writes (a List, or any type
/// with read(T&, const Value&) and write(const T&) -> Value); `codec` points
/// at a namespace-scope constant.
template <typename S, typename T, typename Codec>
struct Items {
  std::string_view key;
  std::vector<T> S::*member;
  const Codec* codec;
  void read(S& s, const std::string& k, const Value& v) const {
    if (!v.is_array()) throw Error("expected an array", v.line, v.col, k);
    std::vector<T>& out = s.*member;
    out.clear();
    out.reserve(v.items().size());
    for (const Value& item : v.items()) codec->read(out.emplace_back(), item);
  }
  void write(const S& s, Value& out) const {
    Value arr = Value::array();
    for (const T& x : s.*member) arr.push_back(codec->write(x));
    out.set(key, std::move(arr));
  }
};

/// Never claims a key: the default `extra` of List::read.
struct NoExtra {
  bool operator()(const std::string&, const Value&) const { return false; }
};

template <typename... F>
struct List {
  constexpr explicit List(const char* ctx, F... f) : context(ctx), fields(f...) {}

  const char* context;  ///< names the object in "unknown key in ..." errors
  std::tuple<F...> fields;

  /// Read member `key` into `s`; false when no entry has that key.
  template <typename S>
  bool read_member(S& s, const std::string& key, const Value& v) const {
    return std::apply(
        [&](const auto&... f) { return ((key == f.key && (f.read(s, key, v), true)) || ...); },
        fields);
  }

  /// Read every member of object `v` into `s` in file order; `extra(key, v)`
  /// handles the keys this list does not hold.
  template <typename S, typename Extra = NoExtra>
  void read(S& s, const Value& v, Extra&& extra = {}) const {
    read_members(v, context, [&](const std::string& key, const Value& m) {
      return read_member(s, key, m) || extra(key, m);
    });
  }

  /// Append every entry of `s` to object `out`, in list order.
  template <typename S>
  void write(const S& s, Value& out) const {
    std::apply([&](const auto&... f) { (f.write(s, out), ...); }, fields);
  }

  template <typename S>
  [[nodiscard]] Value write(const S& s) const {
    Value out = Value::object();
    write(s, out);
    return out;
  }
};

/// Drop the member `key` from object `v` (an omit-when-default key the list
/// wrote); a no-op when absent.
void erase(Value& v, std::string_view key);

}  // namespace fields
}  // namespace pofi::spec
