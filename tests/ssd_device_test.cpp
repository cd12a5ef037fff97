#include "ssd/ssd.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "psu/atx_control.hpp"
#include "ssd/presets.hpp"

namespace pofi::ssd {
namespace {

using sim::Duration;
using sim::Simulator;

SsdConfig small_drive(bool cache_enabled = true, bool plp = false) {
  PresetOptions opts;
  opts.cache_enabled = cache_enabled;
  opts.plp = plp;
  opts.capacity_override_gb = 1;
  SsdConfig cfg = make_preset(VendorModel::kA, opts);
  cfg.mount_delay = Duration::ms(50);
  return cfg;
}

struct Harness {
  explicit Harness(SsdConfig cfg = small_drive(), bool instant_cutoff = false)
      : sim(13),
        psu(sim, instant_cutoff
                     ? std::unique_ptr<psu::DischargeModel>(std::make_unique<psu::InstantCutoff>())
                     : std::make_unique<psu::PowerLawDischarge>()),
        ssd(sim, std::move(cfg)) {
    psu.attach(ssd);
  }

  template <typename Pred>
  void run_until(Pred done, std::uint64_t max_events = 2'000'000) {
    std::uint64_t fired = 0;
    while (!done() && !sim.idle() && fired < max_events) {
      sim.run_all(1);
      ++fired;
    }
  }

  void boot() {
    psu.power_on();
    run_until([&] { return ssd.ready(); });
    ASSERT_TRUE(ssd.ready());
  }

  std::optional<DeviceStatus> write_sync(ftl::Lpn lpn, std::vector<std::uint64_t> tags) {
    std::optional<DeviceStatus> status;
    Command cmd;
    cmd.op = Command::Op::kWrite;
    cmd.lpn = lpn;
    cmd.pages = static_cast<std::uint32_t>(tags.size());
    cmd.contents = std::move(tags);
    cmd.done = [&](DeviceStatus s, std::vector<std::uint64_t>) { status = s; };
    ssd.submit(std::move(cmd));
    run_until([&] { return status.has_value(); });
    return status;
  }

  std::optional<std::vector<std::uint64_t>> read_sync(ftl::Lpn lpn, std::uint32_t pages) {
    std::optional<std::vector<std::uint64_t>> data;
    std::optional<DeviceStatus> status;
    Command cmd;
    cmd.op = Command::Op::kRead;
    cmd.lpn = lpn;
    cmd.pages = pages;
    cmd.done = [&](DeviceStatus s, std::vector<std::uint64_t> d) {
      status = s;
      data = std::move(d);
    };
    ssd.submit(std::move(cmd));
    run_until([&] { return status.has_value(); });
    if (!status.has_value() || *status == DeviceStatus::kDeviceUnavailable) return std::nullopt;
    return data;
  }

  Simulator sim;
  psu::PowerSupply psu;
  Ssd ssd;
};

TEST(Ssd, NotReadyBeforePowerGoodAndMount) {
  Harness h;
  EXPECT_FALSE(h.ssd.ready());
  std::optional<DeviceStatus> status;
  Command cmd;
  cmd.op = Command::Op::kRead;
  cmd.pages = 1;
  cmd.done = [&](DeviceStatus s, std::vector<std::uint64_t>) { status = s; };
  h.ssd.submit(std::move(cmd));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, DeviceStatus::kDeviceUnavailable);
  EXPECT_EQ(h.ssd.stats().commands_failed_unavailable, 1u);
}

TEST(Ssd, BootsAfterMountDelay) {
  Harness h;
  h.psu.power_on();
  h.run_until([&] { return h.psu.state() == psu::PowerSupply::State::kOn; });
  EXPECT_FALSE(h.ssd.ready());  // mounting
  h.run_until([&] { return h.ssd.ready(); });
  EXPECT_TRUE(h.ssd.ready());
}

TEST(Ssd, OnReadyCallbackFires) {
  Harness h;
  bool ready_seen = false;
  h.ssd.on_ready([&] { ready_seen = true; });
  h.psu.power_on();
  h.run_until([&] { return ready_seen; });
  EXPECT_TRUE(ready_seen);
}

TEST(Ssd, WriteReadRoundTripThroughCache) {
  Harness h;
  h.boot();
  EXPECT_EQ(h.write_sync(10, {0xA1, 0xA2, 0xA3}), std::optional(DeviceStatus::kOk));
  const auto data = h.read_sync(10, 3);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, (std::vector<std::uint64_t>{0xA1, 0xA2, 0xA3}));
  EXPECT_EQ(h.ssd.stats().write_acks, 1u);
}

TEST(Ssd, CachedWriteAcksBeforeFlashWork) {
  Harness h;
  h.boot();
  const auto before = h.ssd.chip().stats().programs;
  EXPECT_EQ(h.write_sync(10, {0xB1}), std::optional(DeviceStatus::kOk));
  // ACK arrived while the data still sits in DRAM (no program yet).
  EXPECT_EQ(h.ssd.chip().stats().programs, before);
  EXPECT_GT(h.ssd.cache().dirty_pages(), 0u);
}

TEST(Ssd, WriteThroughAcksAfterProgram) {
  Harness h(small_drive(/*cache_enabled=*/false));
  h.boot();
  EXPECT_EQ(h.write_sync(10, {0xC1}), std::optional(DeviceStatus::kOk));
  EXPECT_GT(h.ssd.chip().stats().programs, 0u);  // durable before the ACK
  const auto data = h.read_sync(10, 1);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 0xC1u);
}

TEST(Ssd, ReadOfUnwrittenReturnsErased) {
  Harness h;
  h.boot();
  const auto data = h.read_sync(500, 2);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], nand::kErasedContent);
  EXPECT_EQ((*data)[1], nand::kErasedContent);
}

TEST(Ssd, PowerLossFailsOutstandingCommands) {
  // Instant cutoff: the rail dies before the transfer can complete.
  Harness h(small_drive(), /*instant_cutoff=*/true);
  h.boot();
  std::optional<DeviceStatus> status;
  Command cmd;
  cmd.op = Command::Op::kWrite;
  cmd.lpn = 0;
  cmd.pages = 64;
  cmd.contents.assign(64, 0xD1);
  cmd.done = [&](DeviceStatus s, std::vector<std::uint64_t>) { status = s; };
  h.ssd.submit(std::move(cmd));
  // Kill the rail before the transfer completes.
  h.psu.power_off();
  h.run_until([&] { return status.has_value(); });
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, DeviceStatus::kDeviceUnavailable);
  EXPECT_GE(h.ssd.stats().power_losses, 1u);
}

TEST(Ssd, DirtyCacheDiesWithPower) {
  Harness h;
  h.boot();
  EXPECT_EQ(h.write_sync(10, {0xE1}), std::optional(DeviceStatus::kOk));
  EXPECT_GT(h.ssd.cache().dirty_pages(), 0u);
  h.psu.power_off();
  h.run_until([&] { return h.psu.state() == psu::PowerSupply::State::kOff; });
  EXPECT_EQ(h.ssd.cache().stats().dirty_lost_on_power_failure, 1u);
  // Recovery: the acknowledged write is gone (FWA).
  h.psu.power_on();
  h.run_until([&] { return h.ssd.ready(); });
  const auto data = h.read_sync(10, 1);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], nand::kErasedContent);
}

TEST(Ssd, PlpDrainsCacheBeforeDying) {
  Harness h(small_drive(/*cache_enabled=*/true, /*plp=*/true));
  h.boot();
  EXPECT_EQ(h.write_sync(10, {0xF1, 0xF2}), std::optional(DeviceStatus::kOk));
  EXPECT_GT(h.ssd.cache().dirty_pages(), 0u);
  h.psu.power_off();
  h.run_until([&] { return h.psu.state() == psu::PowerSupply::State::kOff; });
  h.sim.run_for(Duration::ms(500));  // let the supercap grace window elapse
  EXPECT_EQ(h.ssd.stats().clean_plp_shutdowns, 1u);
  h.psu.power_on();
  h.run_until([&] { return h.ssd.ready(); });
  const auto data = h.read_sync(10, 2);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 0xF1u);
  EXPECT_EQ((*data)[1], 0xF2u);
}

TEST(Ssd, SurvivesMultiplePowerCycles) {
  Harness h;
  h.boot();
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(h.write_sync(cycle, {static_cast<std::uint64_t>(0x100 + cycle)}),
              std::optional(DeviceStatus::kOk));
    h.psu.power_off();
    h.run_until([&] { return h.psu.state() == psu::PowerSupply::State::kOff; });
    h.psu.power_on();
    h.run_until([&] { return h.ssd.ready(); });
    ASSERT_TRUE(h.ssd.ready());
  }
  EXPECT_EQ(h.ssd.stats().power_losses, 3u);
}

TEST(Ssd, RejectsCommandsPastItsLpnSpace) {
  Harness h;
  h.boot();
  const std::uint64_t space = lpn_space(small_drive());
  // One page past the end: a read, a write and a TRIM all fail at once.
  EXPECT_EQ(h.write_sync(space - 1, {0x71, 0x72}),
            std::optional(DeviceStatus::kLbaOutOfRange));
  for (const auto op : {Command::Op::kRead, Command::Op::kTrim}) {
    std::optional<DeviceStatus> status;
    Command cmd;
    cmd.op = op;
    cmd.lpn = space;
    cmd.pages = 1;
    cmd.done = [&](DeviceStatus s, std::vector<std::uint64_t>) { status = s; };
    h.ssd.submit(std::move(cmd));
    EXPECT_EQ(status, std::optional(DeviceStatus::kLbaOutOfRange));
  }
  // An exact fit at the end of the space is accepted.
  EXPECT_EQ(h.write_sync(space - 2, {0x81, 0x82}), std::optional(DeviceStatus::kOk));
  const auto data = h.read_sync(space - 2, 2);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, (std::vector<std::uint64_t>{0x81, 0x82}));
}

TEST(Presets, Table1FleetHasSixDrives) {
  const auto fleet = table1_fleet();
  ASSERT_EQ(fleet.size(), 6u);
  EXPECT_EQ(fleet[0].capacity_gb, 256u);
  EXPECT_EQ(fleet[2].chip.tech, nand::CellTech::kTlc);
  EXPECT_EQ(fleet[2].chip.ecc, nand::EccKind::kLdpc);
  EXPECT_EQ(fleet[4].capacity_gb, 120u);
  for (const auto& cfg : fleet) {
    EXPECT_TRUE(cfg.cache_enabled);
    EXPECT_EQ(cfg.interface_name, "SATA");
  }
}

TEST(Presets, CapacityOverrideScalesGeometry) {
  PresetOptions opts;
  opts.capacity_override_gb = 2;
  const auto cfg = make_preset(VendorModel::kB, opts);
  const std::uint64_t total = cfg.chip.geometry.capacity_bytes() * cfg.channels;
  EXPECT_GE(total, 2ULL << 30);
  EXPECT_LT(total, 3ULL << 30);
  EXPECT_EQ(cfg.capacity_gb, 120u);  // Table I size still reported
}

}  // namespace
}  // namespace pofi::ssd
