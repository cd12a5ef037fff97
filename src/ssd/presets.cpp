#include "ssd/presets.hpp"

namespace pofi::ssd {

namespace {

/// Geometry of ONE die holding `gib` GiB (the drive has several dies).
nand::Geometry geometry_for(double gib) {
  nand::Geometry g;
  g.page_size_bytes = 4 * 1024;  // logical page == flash page, no sub-page RMW
  g.pages_per_block = 256;       // 1 MiB blocks
  g.planes = 2;
  const auto want = static_cast<std::uint64_t>(gib * (1ULL << 30));
  const std::uint64_t block_bytes =
      static_cast<std::uint64_t>(g.page_size_bytes) * g.pages_per_block;
  const std::uint64_t blocks = (want + block_bytes - 1) / block_bytes;
  g.blocks_per_plane = static_cast<std::uint32_t>((blocks + g.planes - 1) / g.planes);
  return g;
}

}  // namespace

SsdConfig make_preset(VendorModel model, const PresetOptions& opts) {
  SsdConfig cfg;
  cfg.cache_enabled = opts.cache_enabled;
  cfg.plp = opts.plp;
  cfg.ftl.mapping_policy = opts.mapping_policy;
  cfg.ftl.por_scan = opts.por_scan;
  cfg.chip.initial_pe_cycles = opts.preage_pe_cycles;
  // Commodity FTLs persist the L2P journal lazily; this is the volatile
  // window that keeps failures alive even with the DRAM data cache disabled
  // (the paper's §IV-A cache-off observation).
  cfg.ftl.journal_interval = sim::Duration::ms(150);

  switch (model) {
    case VendorModel::kA:
      cfg.model = "SSD-A";
      cfg.capacity_gb = 256;
      cfg.release_year = 2013;
      cfg.chip.tech = nand::CellTech::kMlc;
      cfg.chip.ecc = nand::EccKind::kBch;
      cfg.chip.endurance_pe_cycles = 3000;
      cfg.cache.capacity_pages = 65536;  // 256 MiB DRAM
      cfg.cache.hold_time = sim::Duration::ms(600);
      break;
    case VendorModel::kB:
      cfg.model = "SSD-B";
      cfg.capacity_gb = 120;
      cfg.release_year = 2015;
      cfg.chip.tech = nand::CellTech::kTlc;
      cfg.chip.ecc = nand::EccKind::kLdpc;
      cfg.chip.endurance_pe_cycles = 1000;
      cfg.cache.capacity_pages = 32768;  // 128 MiB DRAM
      cfg.cache.hold_time = sim::Duration::ms(600);
      break;
    case VendorModel::kC:
      cfg.model = "SSD-C";
      cfg.capacity_gb = 120;
      cfg.release_year = 0;  // N/A in Table I
      cfg.chip.tech = nand::CellTech::kMlc;
      cfg.chip.ecc = nand::EccKind::kBch;
      cfg.chip.endurance_pe_cycles = 3000;
      cfg.cache.capacity_pages = 32768;
      cfg.cache.hold_time = sim::Duration::ms(400);
      break;
  }
  const std::uint32_t gib = opts.capacity_override_gb != 0 ? opts.capacity_override_gb
                                                           : cfg.capacity_gb;
  cfg.channels = 4;  // 4 dies x 2 planes = 8 concurrent flash operations
  cfg.chip.geometry = geometry_for(static_cast<double>(gib) / cfg.channels);
  return cfg;
}

std::vector<SsdConfig> table1_fleet() {
  std::vector<SsdConfig> fleet;
  for (const auto model : {VendorModel::kA, VendorModel::kB, VendorModel::kC}) {
    for (int unit = 0; unit < 2; ++unit) {
      SsdConfig cfg = make_preset(model);
      cfg.model += "#" + std::to_string(unit + 1);
      fleet.push_back(std::move(cfg));
    }
  }
  return fleet;
}

}  // namespace pofi::ssd
