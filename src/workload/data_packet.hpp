// Fig. 2 of the paper: the data packet.
//
// Every generated request is a packet of header + randomly generated data.
// The header carries size, destination address and queue/complete times; the
// trailing flags are filled by the Analyzer. The paper's three checksums
// (payload, contents before the request, read-back) are carried per page:
// content tags are collision-free, so `page_tags` is the payload checksum,
// `initial_page_tags` what lived at the address before the request (for FWA
// detection), and the read-back is compared page by page by the Analyzer.
#pragma once

#include <cstdint>
#include <vector>

#include "ftl/types.hpp"
#include "sim/enum_names.hpp"
#include "sim/time.hpp"

namespace pofi::workload {

enum class OpType : std::uint8_t { kRead, kWrite };

[[nodiscard]] constexpr auto enum_names(OpType) {
  return std::to_array<sim::EnumName<OpType>>({{OpType::kRead, "read"}, {OpType::kWrite, "write"}});
}
[[nodiscard]] constexpr const char* to_string(OpType t) { return sim::enum_name(t); }

struct DataPacket {
  // ----- header (Fig. 2) ----------------------------------------------------
  std::uint64_t packet_id = 0;
  OpType op = OpType::kWrite;
  ftl::Lpn address = 0;        ///< destination address (logical page)
  std::uint32_t size_pages = 1;
  sim::TimePoint queue_time;     ///< when the request was queued to the device
  sim::TimePoint complete_time;  ///< when the ACK arrived (if it did)

  // ----- flags (filled by the Analyzer) --------------------------------------
  bool modified = false;      ///< ACK seen (request reported complete)
  bool data_failure = false;  ///< read-back mismatched the payload
  bool not_issued = false;    ///< never reached the device / IO error

  // ----- payload --------------------------------------------------------------
  /// One collision-free content tag per page: the payload's checksum.
  std::vector<std::uint64_t> page_tags;
  /// Per-page contents at the destination when the request was issued (what
  /// an FWA leaves behind).
  std::vector<std::uint64_t> initial_page_tags;

  [[nodiscard]] std::uint64_t bytes(std::uint32_t page_size) const {
    return static_cast<std::uint64_t>(size_pages) * page_size;
  }
};

}  // namespace pofi::workload
