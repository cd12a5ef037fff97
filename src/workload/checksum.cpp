#include "workload/checksum.hpp"

#include <array>

namespace pofi::workload {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrcTable = make_crc32c_table();

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t b : data) {
    crc = kCrcTable[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pofi::workload
