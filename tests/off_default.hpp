// Shared check for the "every field off its default" codec round trips.
//
// A round trip only exercises the keys whose values differ from the struct
// defaults: a reader that drops a key reproduces the default and the trip
// still passes. expect_every_leaf_differs(got, base) asserts that every leaf
// of `got` differs from the leaf at the same path of `base` (the default
// value's JSON form), so the trip covers every key's reader and writer.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "spec/value.hpp"

namespace pofi::spec {

/// Objects recurse by key and arrays by index; a leaf missing from `base`
/// (an omit-when-default key, or an array element past the base's end)
/// counts as different.
inline void expect_every_leaf_differs(const Value& got, const Value& base,
                                      const std::string& path = "") {
  if (got.is_object() && base.is_object()) {
    for (const auto& [key, m] : got.members()) {
      const Value* b = base.find(key);
      if (b != nullptr) expect_every_leaf_differs(m, *b, path + "." + key);
    }
    return;
  }
  if (got.is_array() && base.is_array() && !base.items().empty()) {
    for (std::size_t i = 0; i < got.items().size() && i < base.items().size(); ++i) {
      expect_every_leaf_differs(got.items()[i], base.items()[i],
                                path + "[" + std::to_string(i) + "]");
    }
    return;
  }
  EXPECT_FALSE(got == base) << path << " is still at its default " << canonical(base);
}

}  // namespace pofi::spec
