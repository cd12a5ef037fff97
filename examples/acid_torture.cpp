// ACID torture: a diskchecker-style write-ahead-log crash test.
//
// A toy storage engine appends fixed-size WAL records (each ACKed before the
// next is issued — the strongest ordering an application can ask for without
// FLUSH) while the platform yanks power at random instants. After each
// crash+remount the engine replays its log and checks the two properties a
// database needs from the device:
//
//   durability  — every record the device ACKed is readable and intact;
//   prefix-ness — the surviving log is a clean prefix (no holes: a missing
//                 record followed by a present one breaks recovery).
//
// On a commodity cached SSD both properties fail; on a PLP drive both hold.
#include <cstdio>
#include <memory>
#include <vector>

#include "blk/queue.hpp"
#include "platform/shadow_store.hpp"
#include "psu/atx_control.hpp"
#include "sim/simulator.hpp"
#include "ssd/presets.hpp"
#include "stats/table.hpp"

using namespace pofi;

namespace {

// The torture: a 2 GB Table I model-A drive, eight crashes per scenario,
// 16 KiB WAL records, ~25 ms of engine work per transaction and a fixed
// delay before power comes back. A WAL engine drives raw blk requests
// around crashes, so its matrix is fixed here rather than in a spec.
constexpr std::uint64_t kSeed = 31337;
constexpr std::uint32_t kCapacityGb = 2;
constexpr std::uint32_t kCrashes = 8;
constexpr std::uint32_t kRecordPages = 4;  // 16 KiB WAL records
constexpr sim::Duration kCommitThink = sim::Duration::ms(25);
constexpr sim::Duration kRestoreDelay = sim::Duration::ms(300);

struct Scenario {
  const char* label;
  bool plp;
  bool flush_each_commit;
};
constexpr Scenario kScenarios[] = {
    {"commodity (cached)", false, false},
    {"commodity + FLUSH", false, true},
    {"enterprise (PLP)", true, false},
};

struct TortureResult {
  std::uint64_t records_acked = 0;
  std::uint64_t durability_violations = 0;  // ACKed record gone/garbage
  std::uint64_t holes = 0;                  // missing record before a present one
  std::uint32_t crashes = 0;
};

TortureResult torture(const Scenario& scenario) {
  sim::Simulator sim(kSeed);
  psu::PowerSupply psu(sim, std::make_unique<psu::PowerLawDischarge>());
  psu::AtxController atx(psu);
  psu::ArduinoBridge bridge(sim, atx);

  ssd::PresetOptions opts;
  opts.capacity_override_gb = kCapacityGb;
  opts.plp = scenario.plp;
  ssd::Ssd drive(sim, ssd::make_preset(ssd::VendorModel::kA, opts));
  psu.attach(drive);
  blk::BlockQueue queue(sim, drive);

  auto run_while = [&](auto pred) {
    while (pred() && !sim.idle()) sim.run_all(1);
  };

  TortureResult result;
  sim::Rng rng = sim.fork_rng("torture");
  std::uint64_t next_tag = 1;
  ftl::Lpn wal_head = 0;                      // append-only log cursor
  std::vector<std::uint64_t> acked_tags;      // tag per ACKed record
  std::vector<bool> known_lost;               // records already counted lost

  bridge.send(psu::PowerCommand::kOn);
  run_while([&] { return !drive.ready(); });

  for (result.crashes = 0; result.crashes < kCrashes; ++result.crashes) {
    // Append records back-to-back until the scheduled crash point.
    const std::uint64_t crash_after = 20 + rng.below(60);
    bool crashed = false;
    std::uint64_t appended_this_run = 0;
    while (!crashed) {
      bool done = false;
      bool ok = false;
      std::vector<std::uint64_t> tags(kRecordPages);
      for (auto& t : tags) t = next_tag++;
      const auto first = tags[0];
      queue.submit_write(wal_head, std::move(tags),
                         [&](blk::RequestOutcome out) {
                           done = true;
                           ok = out.status == blk::IoStatus::kOk;
                         });
      run_while([&] { return !done; });
      if (ok && scenario.flush_each_commit) {
        // The engine issues a FLUSH barrier after every commit, the way a
        // database with a correct fsync() path would.
        bool flushed = false;
        queue.submit_flush([&](blk::RequestOutcome out) {
          flushed = true;
          ok = ok && out.status == blk::IoStatus::kOk;
        });
        run_while([&] { return !flushed; });
      }
      if (ok) {
        result.records_acked += 1;
        acked_tags.push_back(first);
        wal_head += kRecordPages;
        appended_this_run += 1;
      }
      // The engine does real work between commits (~25 ms per transaction),
      // so older records age past the drive's flush horizon while the tail
      // is still volatile — the interesting regime.
      sim.run_for(kCommitThink);
      if (appended_this_run >= crash_after || !ok) {
        bridge.send(psu::PowerCommand::kOff);
        run_while([&] { return psu.state() != psu::PowerSupply::State::kOff; });
        crashed = true;
      }
    }

    // Remount and replay the log.
    sim.run_for(kRestoreDelay);
    bridge.send(psu::PowerCommand::kOn);
    run_while([&] { return !drive.ready(); });

    known_lost.resize(acked_tags.size(), false);
    bool newly_missing_seen = false;
    for (std::size_t rec = 0; rec < acked_tags.size(); ++rec) {
      if (known_lost[rec]) continue;  // counted in an earlier crash
      bool done = false;
      std::uint64_t observed = 0;
      queue.submit_read(static_cast<ftl::Lpn>(rec) * kRecordPages, 1,
                        [&](blk::RequestOutcome out) {
                          done = true;
                          if (out.status == blk::IoStatus::kOk && !out.read_contents.empty()) {
                            observed = out.read_contents[0];
                          }
                        });
      run_while([&] { return !done; });
      const bool intact = observed == acked_tags[rec];
      if (!intact) {
        result.durability_violations += 1;
        known_lost[rec] = true;
        newly_missing_seen = true;
      } else if (newly_missing_seen) {
        // A surviving record after a freshly-lost one: the log has a hole.
        result.holes += 1;
        newly_missing_seen = false;
      }
    }
  }
  return result;
}

}  // namespace

int main() {
  stats::print_banner("ACID torture: write-ahead log vs power loss (diskchecker-style)");

  stats::Table table(
      {"drive", "crashes", "records ACKed", "durability violations", "log holes"});
  for (const auto& scenario : kScenarios) {
    const TortureResult r = torture(scenario);
    table.add_row({scenario.label, stats::Table::fmt(std::uint64_t{r.crashes}),
                   stats::Table::fmt(r.records_acked),
                   stats::Table::fmt(r.durability_violations),
                   stats::Table::fmt(r.holes)});
  }
  table.print();

  std::printf("\nthe commodity drive ACKs records it later loses (FWA) and can leave holes\n");
  std::printf("in the middle of the log (partial application) - exactly why databases must\n");
  std::printf("FLUSH/FUA through volatile caches, and why the paper's FWA class matters.\n");
  return 0;
}
