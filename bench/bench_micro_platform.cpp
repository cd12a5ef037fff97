// P1: platform microbenchmarks (google-benchmark).
//
// Hot-path costs of the substrate: checksums, ECC decode decisions, the
// Hamming codec, the event kernel, mapping-table updates and the NAND
// chip's synchronous read path. These bound how large a campaign the
// platform can simulate per wall-second.
//
// Besides the registered google-benchmark cases, main() times pooled
// session reset against fresh platform construction and writes the
// session_reset record to $POFI_BENCH_DIR/BENCH_micro.json (cwd when unset).
// End-to-end cost lives in perfbench/ (BENCHMARK.json), not here.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ftl/mapping.hpp"
#include "nand/chip.hpp"
#include "nand/ecc.hpp"
#include "platform/test_platform.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "ssd/presets.hpp"
#include "workload/checksum.hpp"

namespace {

using namespace pofi;

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void BM_Fnv1a(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::fnv1a64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(4096);

void BM_BchDecode(benchmark::State& state) {
  const nand::BchEcc ecc(40, 1024);
  sim::Rng rng(1);
  const auto errors = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.decode(4096 * 8, errors, rng));
  }
}
BENCHMARK(BM_BchDecode)->Arg(0)->Arg(8)->Arg(100)->Arg(5000);

void BM_LdpcDecode(benchmark::State& state) {
  const nand::LdpcEcc ecc;
  sim::Rng rng(1);
  const auto errors = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.decode(4096 * 8, errors, rng));
  }
}
BENCHMARK(BM_LdpcDecode)->Arg(8)->Arg(300);

void BM_HammingRoundTrip(benchmark::State& state) {
  std::uint64_t x = 0x0123456789abcdefULL;
  for (auto _ : state) {
    auto cw = nand::HammingSecDed::encode(x);
    cw.data ^= 1ULL << 17;  // single-bit flip
    benchmark::DoNotOptimize(nand::HammingSecDed::decode(cw));
    x = x * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_HammingRoundTrip);

void BM_EventKernel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.after(sim::Duration::us(i), [&counter] { ++counter; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventKernel);

// ---------------------------------------------------------------------------
// Event-kernel mix: the steady-state schedule/fire/cancel mix a campaign
// exerts (every NAND op, journal tick and power event goes through this).
// Per iteration: one schedule, one pop+fire, and every 4th iteration an
// extra schedule plus a cancel of a random recently-issued id (some already
// fired — the stale-handle path is part of the real mix). The queue holds
// ~`pending` live events throughout.
//
// Callbacks carry a 48-byte capture: simulator continuations drag `this`,
// a shared_ptr'd command, an epoch stamp and progress state through the
// queue, so an 8-byte toy capture would flatter the kernel.
struct FatCapture {
  std::uint64_t* fired;
  std::uint64_t epoch;
  void* owner;
  void* cmd_a;
  void* cmd_b;
  void* progress;
};
static_assert(sizeof(FatCapture) == 48);

/// Runs the mix and returns the number of kernel operations performed
/// (schedules + cancels + pops). `sink` defeats dead-code elimination.
std::uint64_t run_event_mix(std::size_t pending, std::size_t iters, std::uint64_t& sink) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t ops = 0;
  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  const auto rnd = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::int64_t clock_ns = 0;
  std::vector<sim::EventId> ring(256);

  const auto schedule = [&](std::size_t slot) {
    const auto at =
        sim::TimePoint::from_ns(clock_ns + static_cast<std::int64_t>(rnd() % 100000) + 1);
    const FatCapture cap{&fired, rng, nullptr, nullptr, nullptr, nullptr};
    ring[slot % ring.size()] =
        q.schedule_at(at, [cap] { *cap.fired += cap.epoch != 0 ? 1 : 2; });
    ++ops;
  };

  for (std::size_t i = 0; i < pending; ++i) schedule(i);
  for (std::size_t i = 0; i < iters; ++i) {
    schedule(i);
    if ((i & 3) == 0) {
      schedule(i + 1);
      q.cancel(ring[rnd() % ring.size()]);
      ++ops;
    }
    if (!q.empty()) {
      auto ev = q.pop();
      clock_ns = ev.time.count_ns();
      ev.cb();
      ++ops;
    }
  }
  while (!q.empty()) q.pop();  // drain; not part of the steady-state count
  sink += fired;
  return ops;
}

void BM_EventMixSlotArena(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ops += run_event_mix(static_cast<std::size_t>(state.range(0)), 20000, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EventMixSlotArena)->Arg(64)->Arg(4096);

// ---------------------------------------------------------------------------
// Mapping table. Update goes through the full MappingTable (volatile
// bookkeeping included, with periodic batch commits, as the journal does in
// steady state); lookup probes the dense committed L2P.

void BM_MappingUpdate(benchmark::State& state) {
  ftl::MappingTable map(ftl::MappingPolicy::kPageLevel, 64, 16, 100000);
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    map.update(lpn % 100000, lpn);
    ++lpn;
    if (lpn % 4096 == 0) {
      const auto batch = map.begin_persist_batch();
      map.commit_batch(batch);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingUpdate);

void BM_MappingLookupFlat(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  ftl::MappingTable map(ftl::MappingPolicy::kPageLevel, 64, 16, entries);
  for (std::uint64_t l = 0; l < entries; ++l) map.update(l, l * 7 + 1);
  map.commit_batch(map.begin_persist_batch());
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup(lpn * 2654435761u % entries));
    ++lpn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingLookupFlat)->Arg(1 << 16)->Arg(1 << 20);

void BM_ChipSyncRead(benchmark::State& state) {
  sim::Simulator sim;
  nand::NandChip::Config cfg;
  cfg.geometry.page_size_bytes = 4096;
  cfg.geometry.pages_per_block = 64;
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.planes = 2;
  nand::NandChip chip(sim, cfg);
  chip.on_power_good();
  chip.program(0, 0x42, [](nand::OpResult) {});
  sim.run_all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.read_now(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipSyncRead);

// ---------------------------------------------------------------------------
// BENCH_micro.json: fixed-work session_reset record, best-of-5 wall-clock reps.

double timed_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best-of-N for an A/B pair, reps interleaved so slow phases of a shared
/// (2-vCPU CI) box hit both sides rather than biasing whichever ran second.
std::pair<double, double> best_seconds_ab(const std::function<void()>& a,
                                          const std::function<void()>& b, int reps = 5) {
  double best_a = 1e30;
  double best_b = 1e30;
  for (int r = 0; r < reps; ++r) {
    best_a = std::min(best_a, timed_seconds(a));
    best_b = std::min(best_b, timed_seconds(b));
  }
  return {best_a, best_b};
}

struct AbResult {
  std::uint64_t ops = 0;
  double baseline_ops_per_sec = 0;
  double new_ops_per_sec = 0;
  [[nodiscard]] double speedup() const {
    return baseline_ops_per_sec > 0 ? new_ops_per_sec / baseline_ops_per_sec : 0;
  }
};

/// Session-reset A/B: rewinding a pooled TestPlatform in place (the
/// per-entry cost of the pooled campaign runner) vs tearing it down and
/// constructing a fresh one (the historical per-entry cost). Same drive
/// preset the campaign benches use; ops are reset (or construct) cycles.
AbResult ab_session_reset(std::size_t cycles) {
  AbResult r;
  r.ops = cycles;
  const ssd::SsdConfig drive = ssd::make_preset(ssd::VendorModel::kA);
  const platform::PlatformConfig pc{};
  platform::TestPlatform pooled(drive, pc, 1);
  std::uint64_t seed = 1;
  std::uint64_t sink = 0;
  const auto [s_new, s_old] = best_seconds_ab(
      [&] {
        for (std::size_t i = 0; i < cycles; ++i) {
          pooled.reset(pc, ++seed);
          sink += pooled.simulator().now().count_ns() == 0;
        }
      },
      [&] {
        for (std::size_t i = 0; i < cycles; ++i) {
          platform::TestPlatform fresh(drive, pc, ++seed);
          sink += fresh.simulator().now().count_ns() == 0;
        }
      });
  r.new_ops_per_sec = static_cast<double>(cycles) / s_new;
  r.baseline_ops_per_sec = static_cast<double>(cycles) / s_old;
  if (sink == 0) std::printf("(impossible)\n");
  return r;
}

void write_micro_bench_json() {
  std::printf("\n-- session reset vs fresh construction (fixed work, best of 5) --\n");
  const AbResult sr = ab_session_reset(24);
  std::printf("session reset  : %8.1f cyc/s  vs %8.1f cyc/s   -> %.2fx\n",
              sr.new_ops_per_sec, sr.baseline_ops_per_sec, sr.speedup());

  const char* dir = std::getenv("POFI_BENCH_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) + "/BENCH_micro.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_micro.json write FAILED: %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_micro_platform\",\n"
               "  \"session_reset\": {\n"
               "    \"workload\": \"pooled TestPlatform reset-in-place vs fresh "
               "construct+destroy, Table I model A preset, 24 cycles\",\n"
               "    \"ops\": %llu,\n"
               "    \"baseline_ops_per_sec\": %.0f,\n"
               "    \"new_ops_per_sec\": %.0f,\n"
               "    \"speedup\": %.2f\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(sr.ops), sr.baseline_ops_per_sec,
               sr.new_ops_per_sec, sr.speedup());
  std::fclose(f);
  std::printf("perf record written: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_micro_bench_json();
  return 0;
}
