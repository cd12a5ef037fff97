// Checksums used by the failure-detection pipeline.
//
// The paper stores three checksums per data packet (Fig. 2) and detects data
// loss by comparing the written data's checksum with the read-back data. We
// provide CRC32C (Castagnoli, the storage-industry standard) and FNV-1a/64.
// On the hot simulation path contents are identified by collision-free tags,
// but full-payload tests run these real codecs end-to-end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pofi::workload {

/// CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78), table-driven.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0);

/// FNV-1a 64-bit.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

}  // namespace pofi::workload
