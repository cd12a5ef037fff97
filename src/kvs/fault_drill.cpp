#include "kvs/fault_drill.hpp"

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psu/atx_control.hpp"
#include "ssd/presets.hpp"

namespace pofi::kvs {
namespace {

constexpr std::uint32_t kCapacityGb = 2;
constexpr std::uint32_t kWalPages = 262144;
constexpr std::uint32_t kFaults = 25;
constexpr std::uint64_t kMinTxnsPerFault = 15;
constexpr std::uint64_t kExtraTxnsPerFault = 20;  // 15–34 transactions
constexpr std::uint64_t kMaxPutsPerTxn = 4;
constexpr std::uint32_t kKeySpace = 4096;
constexpr sim::Duration kThinkTime = sim::Duration::ms(20);
constexpr sim::Duration kRestoreDelay = sim::Duration::ms(300);
constexpr std::uint64_t kMaxEventsPerWait = 20'000'000;

}  // namespace

DrillResult run_fault_drill(CommitDiscipline discipline, bool plp, std::uint64_t seed) {
  sim::Simulator sim(seed);
  psu::PowerSupply psu(sim, std::make_unique<psu::PowerLawDischarge>());
  psu::AtxController atx(psu);
  psu::ArduinoBridge bridge(sim, atx);
  ssd::PresetOptions opts;
  opts.capacity_override_gb = kCapacityGb;
  opts.plp = plp;
  ssd::Ssd drive(sim, ssd::make_preset(ssd::VendorModel::kA, opts));
  psu.attach(drive);
  blk::BlockQueue queue(sim, drive);
  MiniKv::Config kv_cfg;
  kv_cfg.discipline = discipline;
  kv_cfg.wal_pages = kWalPages;
  MiniKv kv(sim, queue, kv_cfg);

  sim::Rng rng = sim.fork_rng("app-ops");
  DrillResult result;
  // Ground truth: every (key, value) the application believes committed.
  std::unordered_map<std::uint32_t, std::uint32_t> believed;

  bridge.send(psu::PowerCommand::kOn);
  sim.run_while([&] { return !drive.ready(); }, kMaxEventsPerWait);

  for (std::uint32_t fault = 0; fault < kFaults; ++fault) {
    const std::uint64_t txns_this_round = kMinTxnsPerFault + rng.below(kExtraTxnsPerFault);
    for (std::uint64_t t = 0; t < txns_this_round; ++t) {
      const auto puts = 1 + rng.below(kMaxPutsPerTxn);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> staged;
      for (std::uint64_t p = 0; p < puts; ++p) {
        const auto key = static_cast<std::uint32_t>(rng.below(kKeySpace));
        const auto value = static_cast<std::uint32_t>(rng.next());
        kv.put(key, value);
        staged.emplace_back(key & 0xFFFFFF, value);
      }
      bool done = false, ok = false;
      kv.commit([&](bool r) {
        done = true;
        ok = r;
      });
      sim.run_while([&] { return !done; }, kMaxEventsPerWait);
      if (ok) {
        result.committed += 1;
        for (const auto& [k, v] : staged) believed[k] = v;
      }
      sim.run_for(kThinkTime);
    }

    // Pull the plug mid-deployment, then recover.
    bridge.send(psu::PowerCommand::kOff);
    sim.run_while([&] { return psu.state() != psu::PowerSupply::State::kOff; },
                  kMaxEventsPerWait);
    sim.run_for(kRestoreDelay);
    bridge.send(psu::PowerCommand::kOn);
    sim.run_while([&] { return !drive.ready(); }, kMaxEventsPerWait);

    bool recovered = false;
    RecoveryStats rec;
    kv.recover([&](RecoveryStats r) {
      recovered = true;
      rec = r;
    });
    sim.run_while([&] { return !recovered; }, kMaxEventsPerWait);
    result.torn += rec.torn;
    result.holes += rec.holes;

    // Durability audit: every believed-committed key must hold its value.
    for (const auto& [k, v] : believed) {
      const auto got = kv.get(k);
      if (!got.has_value() || *got != v) ++result.durability_violations;
    }
    // Re-sync belief with reality for the next round (the application would
    // re-read after recovery, as any crash-consistent client must).
    believed = kv.table();
  }
  return result;
}

}  // namespace pofi::kvs
