// Fleet comparison: the same write-heavy campaign against every Table I
// model (three units each, sharded seeds — nine drives, as in the paper's
// "we have examined more than five SSDs from different vendors").
//
// The paper reports that all of its drives lost data; the interesting
// comparison is *how* they differ: cache size and flush cadence move the
// FWA channel, cell technology and ECC move the physical-corruption channel.
//
// This bench doubles as the perf gate for the parallel campaign runner: the
// fleet is embarrassingly parallel (one fresh platform per unit), so it runs
// once sequentially and once on the worker pool, cross-checks that the rows
// are identical, and records the speedup in BENCH_runner.json.
//
// It also records the session pool's steady state: the heap allocations per
// pooled entry on a pool of identical short campaigns (global counting
// new/delete — keep this bench its own binary) and the pool's reset/rebuild
// split.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_common.hpp"
#include "runner/experiment_session.hpp"
#include "sim/rng.hpp"
#include "spec/campaign.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

int main() {
  using namespace pofi;
  stats::print_banner("fleet comparison: identical campaign on all nine Table I units");
  std::printf("write-only 4KiB..1MiB random workload; 60 faults per unit\n\n");

  spec::CampaignSpec fleet;
  for (const auto model :
       {ssd::VendorModel::kA, ssd::VendorModel::kB, ssd::VendorModel::kC}) {
    for (int unit = 0; unit < 3; ++unit) {
      spec::CampaignEntry entry;
      entry.drive = ssd::make_preset(model);
      entry.drive.model += "#" + std::to_string(unit + 1);
      entry.label = entry.drive.model;

      platform::ExperimentSpec& spec = entry.experiment;
      spec.name = "fleet-" + entry.drive.model;
      spec.workload.name = "fleet";
      spec.workload.wss_pages = bench::wss_pages_for_gib(entry.drive, 16.0);
      bench::paper_size_range(spec.workload, entry.drive);
      spec.workload.write_fraction = 1.0;
      spec.total_requests = 4800;
      spec.faults = 60;
      spec.pace_iops = 4.0;
      // One seed per unit, sharded from master seed 42, so units of a model
      // are decorrelated.
      spec.seed = sim::derive_seed(fleet.master_seed, fleet.entries.size());
      fleet.entries.push_back(std::move(entry));
    }
  }

  // Default to the box's width (min 2 so the pool is exercised): a fixed
  // count oversubscribes small CI runners and understates big ones.
  const unsigned threads = bench::bench_threads() != 0
                               ? bench::bench_threads()
                               : std::max(2u, std::thread::hardware_concurrency());
  std::vector<spec::CampaignRow> seq_rows, par_rows;
  fleet.runner.threads = 1;
  const double seq_seconds =
      bench::wall_seconds([&] { seq_rows = spec::run_campaign_rows(fleet); });
  fleet.runner.threads = threads;
  const double par_seconds =
      bench::wall_seconds([&] { par_rows = spec::run_campaign_rows(fleet); });

  stats::Table table({"unit", "cell", "ECC", "cache DRAM", "data failures", "FWA", "IO err",
                      "loss/fault", "mean Q2C (us)"});
  bool deterministic = seq_rows.size() == par_rows.size();
  for (std::size_t i = 0; i < par_rows.size(); ++i) {
    const auto& r = par_rows[i].result;
    const auto& drive = fleet.entries[i].drive;
    deterministic = deterministic && r.data_failures == seq_rows[i].result.data_failures &&
                    r.fwa_failures == seq_rows[i].result.fwa_failures &&
                    r.io_errors == seq_rows[i].result.io_errors &&
                    r.sim_seconds == seq_rows[i].result.sim_seconds;
    table.add_row({par_rows[i].label, nand::to_string(drive.chip.tech),
                   nand::to_string(drive.chip.ecc),
                   std::to_string(drive.cache.capacity_pages * 4 / 1024) + " MiB",
                   stats::Table::fmt(r.data_failures), stats::Table::fmt(r.fwa_failures),
                   stats::Table::fmt(r.io_errors),
                   stats::Table::fmt(r.data_failures_per_fault(), 2),
                   stats::Table::fmt(r.mean_latency_us, 0)});
  }
  table.print();

  std::printf("\nrunner: %zu campaigns | sequential %.1fs | %u threads %.1fs | "
              "speedup %.2fx%s | parallel rows %s sequential rows\n",
              fleet.entries.size(), seq_seconds, threads, par_seconds,
              par_seconds > 0 ? seq_seconds / par_seconds : 0.0,
              std::thread::hardware_concurrency() >= threads
                  ? ""
                  : " (NOT meaningful: fewer hardware threads than workers)",
              deterministic ? "bit-identical to" : "DIVERGE from");

  // ---- session pool ------------------------------------------------------
  // A pool of *identical-config* short campaigns (unlike the fleet above,
  // whose per-unit model strings force a rebuild every entry): the sweep
  // shape session pooling exists for, run at threads=1.
  constexpr std::size_t kPoolSmall = 4, kPoolFull = 12;
  spec::CampaignSpec pool;
  for (std::size_t i = 0; i < kPoolFull; ++i) {
    spec::CampaignEntry entry;
    entry.drive = ssd::make_preset(ssd::VendorModel::kA);
    entry.label = "pool-" + std::to_string(i);

    platform::ExperimentSpec& spec = entry.experiment;
    spec.name = entry.label;
    spec.workload.name = "pool";
    spec.workload.wss_pages = bench::wss_pages_for_gib(entry.drive, 1.0);
    spec.workload.min_pages = 1;  // 4KiB..64KiB: keep entries short on purpose —
    spec.workload.max_pages = 16;  // per-entry setup is what the pool amortises
    spec.workload.write_fraction = 1.0;
    spec.total_requests = 32;
    spec.faults = 1;
    spec.pace_iops = 4.0;
    spec.seed = sim::derive_seed(pool.master_seed, i);
    pool.entries.push_back(std::move(entry));
  }
  spec::CampaignSpec small_pool = pool;
  small_pool.entries.resize(kPoolSmall);
  (void)spec::run_campaign_rows(pool);  // warm-up: first-touch allocations

  // Steady-state heap traffic per pooled entry: difference quotient between
  // two pool sizes, so the one-time first-entry build (and anything else
  // size-independent) cancels out of the numerator.
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  (void)spec::run_campaign_rows(small_pool);
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  (void)spec::run_campaign_rows(pool);
  const std::uint64_t a2 = g_allocs.load(std::memory_order_relaxed);
  const double steady_allocs =
      static_cast<double>((a2 - a1) - (a1 - a0)) / static_cast<double>(kPoolFull - kPoolSmall);

  runner::ExperimentSession::reset_counters();
  (void)spec::run_campaign_rows(pool);

  const bench::SessionPool session_pool{kPoolFull, steady_allocs,
                                        runner::ExperimentSession::reset_count(),
                                        runner::ExperimentSession::rebuild_count()};

  std::printf("\nsession pool: %zu identical campaigns | %.0f steady allocs/entry | "
              "%llu resets + %llu rebuilds\n",
              session_pool.campaigns, session_pool.steady_allocs_per_entry,
              static_cast<unsigned long long>(session_pool.resets),
              static_cast<unsigned long long>(session_pool.rebuilds));

  bench::write_runner_bench_json("fleet_comparison", threads, fleet.entries.size(),
                                 par_seconds, seq_seconds, session_pool);

  std::printf("\nreading: every unit loses acknowledged data (the paper's prior-work\n");
  std::printf("baseline found 13 of 15 drives failing); units of the same model agree\n");
  std::printf("closely while models differ through cache size and flush cadence.\n");
  return deterministic ? 0 : 1;
}
