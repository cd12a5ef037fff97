// Enum spellings, written once next to each enum.
//
// An enum E that has a text form declares, in its own namespace,
//
//   constexpr auto enum_names(E) {
//     return std::to_array<sim::EnumName<E>>({{E::kA, "a"}, {E::kB, "b"}});
//   }
//
// and both directions derive from that one table: to_string(E) is
// sim::enum_name(e), and readers (the spec codec, checkpoint loading) parse
// with sim::enum_from_name. Tables list every enumerator in declaration
// order, which is also the order the codec's "expected one of" errors print.
#pragma once

#include <array>
#include <string_view>

namespace pofi::sim {

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// The spelling of `value`; "?" for a value its table does not list.
template <typename E>
[[nodiscard]] constexpr const char* enum_name(E value) {
  for (const auto& n : enum_names(value)) {
    if (n.value == value) return n.name;
  }
  return "?";
}

/// Parse a spelling back; false (and `out` untouched) for an unknown name.
template <typename E>
[[nodiscard]] constexpr bool enum_from_name(std::string_view name, E& out) {
  for (const auto& n : enum_names(E{})) {
    if (name == n.name) {
      out = n.value;
      return true;
    }
  }
  return false;
}

}  // namespace pofi::sim
