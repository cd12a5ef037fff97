// Datacenter outage drill: a rack PSU browns out under a whole shelf of
// SSDs at once (the Amazon/Level-3 style incidents the paper's introduction
// cites). Three different drive models share one ATX supply; when the rail
// dies they all ride the same discharge curve — but their different caches,
// cell technologies and ECC configurations produce different damage.
//
// Demonstrates: multiple PowerSinks on one PowerSupply and manual
// orchestration of the simulator (instead of TestPlatform's canned
// campaign), and per-model damage comparison. A shared-rail shelf is not a
// TestPlatform campaign, so the drill is fixed here rather than in a spec.
#include <cstdio>
#include <memory>
#include <vector>

#include "blk/queue.hpp"
#include "psu/atx_control.hpp"
#include "psu/power_supply.hpp"
#include "sim/simulator.hpp"
#include "ssd/presets.hpp"
#include "stats/table.hpp"

using namespace pofi;

namespace {

struct Shelf {
  std::unique_ptr<ssd::Ssd> drive;
  std::unique_ptr<blk::BlockQueue> queue;
  std::uint64_t acked = 0;
  std::uint64_t errors = 0;
  std::uint64_t verified_bad = 0;
  std::vector<std::pair<ftl::Lpn, std::uint64_t>> committed;  // lpn -> tag
};

// The drill: one 4 GB unit of each Table I model on the rack rail, one
// 64 KiB write per drive per burst, the rail failing halfway through the
// burst train and the generator facility restoring power after a fixed delay.
// Bursts keep arriving during the outage, so the writes issued while the
// drives are down fail as IO errors; the outage outlasts the train, so the
// audit reads back settled data.
constexpr std::uint64_t kSeed = 2026;
constexpr std::uint32_t kCapacityGb = 4;
constexpr std::uint32_t kBursts = 100;
constexpr sim::Duration kBurstInterval = sim::Duration::ms(20);
constexpr std::uint32_t kPagesPerWrite = 16;  // 64 KiB at 4 KiB pages
constexpr std::uint64_t kLpnSpace = 200'000;
constexpr sim::Duration kRailFailsAfter = kBurstInterval * kBursts / 2;
constexpr sim::Duration kRestoreDelay = sim::Duration::ms(500);

}  // namespace

int main() {
  sim::Simulator sim(kSeed);
  psu::PowerSupply rack_psu(sim, std::make_unique<psu::PowerLawDischarge>());
  psu::AtxController atx(rack_psu);
  psu::ArduinoBridge bridge(sim, atx);

  // One unit of each model, scaled down for the demo.
  ssd::PresetOptions opts;
  opts.capacity_override_gb = kCapacityGb;
  std::vector<Shelf> shelf;
  for (const auto model : {ssd::VendorModel::kA, ssd::VendorModel::kB, ssd::VendorModel::kC}) {
    Shelf s;
    s.drive = std::make_unique<ssd::Ssd>(sim, ssd::make_preset(model, opts));
    rack_psu.attach(*s.drive);
    s.queue = std::make_unique<blk::BlockQueue>(sim, *s.drive);
    shelf.push_back(std::move(s));
  }

  // Power the rack up and wait for every drive to mount.
  bridge.send(psu::PowerCommand::kOn);
  sim.run_while([&] {
    for (const auto& s : shelf) {
      if (!s.drive->ready()) return true;
    }
    return false;
  });
  std::printf("rack up: %zu drives mounted at t=%.2fs\n", shelf.size(), sim.now().to_sec());

  // Each drive absorbs a stream of writes, powered or not.
  std::uint64_t next_tag = 1;
  sim::Rng rng = sim.fork_rng("rack-writes");
  for (std::uint32_t burst = 0; burst < kBursts; ++burst) {
    sim.after(kBurstInterval * burst, [&] {
      for (auto& s : shelf) {
        const ftl::Lpn lpn = rng.below(kLpnSpace);
        std::vector<std::uint64_t> tags(kPagesPerWrite);
        for (auto& t : tags) t = next_tag++;
        auto* shelf_ptr = &s;
        const auto first_tag = tags[0];
        s.queue->submit_write(lpn, std::move(tags),
                              [shelf_ptr, lpn, first_tag](blk::RequestOutcome out) {
                                if (out.status == blk::IoStatus::kOk) {
                                  shelf_ptr->acked += 1;
                                  shelf_ptr->committed.emplace_back(lpn, first_tag);
                                } else {
                                  shelf_ptr->errors += 1;
                                }
                              });
      }
    });
  }
  sim.run_for(kRailFailsAfter);

  // The rack PSU fails mid-workload.
  std::printf("rack PSU failure at t=%.2fs (all drives on one rail)\n", sim.now().to_sec());
  bridge.send(psu::PowerCommand::kOff);
  sim.run_while([&] { return rack_psu.state() != psu::PowerSupply::State::kOff; });

  // Generator facility restores power; drives remount.
  sim.run_for(kRestoreDelay);
  bridge.send(psu::PowerCommand::kOn);
  sim.run_while([&] {
    for (const auto& s : shelf) {
      if (!s.drive->ready()) return true;
    }
    return false;
  });

  // Audit: read back the first page of every ACKed burst.
  for (auto& s : shelf) {
    for (const auto& [lpn, tag] : s.committed) {
      s.queue->submit_read(lpn, 1, [&s, tag = tag](blk::RequestOutcome out) {
        if (out.status != blk::IoStatus::kOk || out.read_contents.empty() ||
            out.read_contents[0] != tag) {
          s.verified_bad += 1;
        }
      });
    }
  }
  sim.run_while([&] {
    for (const auto& s : shelf) {
      if (s.queue->outstanding() > 0) return true;
    }
    return false;
  });

  stats::print_banner("rack outage damage report");
  stats::Table table({"drive", "cell", "ECC", "ACKed writes", "IO errors",
                      "ACKed-but-damaged", "dirty pages lost"});
  for (const auto& s : shelf) {
    const auto& cfg = s.drive->config();
    table.add_row({cfg.model, nand::to_string(cfg.chip.tech), nand::to_string(cfg.chip.ecc),
                   stats::Table::fmt(s.acked), stats::Table::fmt(s.errors),
                   stats::Table::fmt(s.verified_bad),
                   stats::Table::fmt(s.drive->cache().stats().dirty_lost_on_power_failure)});
  }
  table.print();
  std::printf("\nevery drive on the shared rail lost its volatile state at the same instant;\n");
  std::printf("acknowledged-but-damaged counts differ with cache size and flush cadence.\n");
  return 0;
}
