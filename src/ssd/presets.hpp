// Vendor presets reproducing Table I of the paper.
//
// Three SSD models (two units of each were tested): A — 256 GB SATA MLC with
// internal cache and ECC, released 2013; B — 120 GB SATA TLC with LDPC,
// 2015; C — 120 GB SATA MLC with cache and ECC, release year N/A. Absolute
// electrical parameters are obviously not in the paper; these presets pick
// plausible values per technology class and expose every knob the benches
// sweep (cache on/off, PLP, mapping policy).
#pragma once

#include <string>
#include <vector>

#include "sim/enum_names.hpp"
#include "ssd/ssd.hpp"

namespace pofi::ssd {

enum class VendorModel : std::uint8_t { kA, kB, kC };

[[nodiscard]] constexpr auto enum_names(VendorModel) {
  return std::to_array<sim::EnumName<VendorModel>>(
      {{VendorModel::kA, "A"}, {VendorModel::kB, "B"}, {VendorModel::kC, "C"}});
}
[[nodiscard]] constexpr const char* to_string(VendorModel m) { return sim::enum_name(m); }

struct PresetOptions {
  bool cache_enabled = true;
  bool plp = false;
  /// Power-on-recovery scan (enterprise firmware feature; ablation A3 is
  /// specs/ablation_por_recovery.json).
  bool por_scan = false;
  /// Pre-age the NAND: initial P/E cycles on every block (the drive-level
  /// form of the die aging that ablation A4 measures).
  std::uint32_t preage_pe_cycles = 0;
  ftl::MappingPolicy mapping_policy = ftl::MappingPolicy::kHybridExtent;
  /// Scale the drive down for memory-bounded sweeps (1 = Table I capacity).
  std::uint32_t capacity_override_gb = 0;
};

[[nodiscard]] SsdConfig make_preset(VendorModel model, const PresetOptions& opts = {});

/// The six drives of Table I (two units per model).
[[nodiscard]] std::vector<SsdConfig> table1_fleet();

}  // namespace pofi::ssd
