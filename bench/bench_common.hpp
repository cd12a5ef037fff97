// Shared helpers for the fleet comparison bench. The paper's figures,
// tables and ablations are committed specs run by `pofi_run --spec`
// (EXPERIMENTS.md).
//
// Scale note: the paper's campaigns (hundreds of faults, tens of thousands
// of requests per experiment) run for days on physical hardware. The
// simulated campaigns reproduce the same *per-fault* statistics at reduced
// fault counts so a bench completes in minutes and prints its scale next
// to the paper's.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ssd/presets.hpp"
#include "stats/table.hpp"
#include "workload/workload.hpp"

namespace pofi::bench {

/// Worker threads for parallel sweeps: POFI_THREADS overrides; default 0
/// resolves to one worker per hardware thread.
inline unsigned bench_threads() {
  if (const char* env = std::getenv("POFI_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;
}

/// Wall-clock seconds spent in `fn`.
template <typename Fn>
inline double wall_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Process peak resident set size in MiB (getrusage; ru_maxrss is KiB on
/// Linux). 0.0 when the platform has no rusage.
inline double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
#endif
#else
  return 0.0;
#endif
}

/// Session-pool numbers for the BENCH_runner.json record: the steady-state
/// heap traffic per pooled entry on an identical-config pool, and the pool's
/// reset/rebuild split.
struct SessionPool {
  std::size_t campaigns = 0;
  double steady_allocs_per_entry = 0.0;
  std::uint64_t resets = 0;
  std::uint64_t rebuilds = 0;
};

/// Machine-readable perf record for the parallel runner, tracked across PRs
/// (see ISSUE/ROADMAP): campaigns/sec, wall seconds, thread count, speedup
/// over the sequential path, and the process peak RSS — the number the
/// large-drive specs stress, since the whole fleet's NAND state now rides
/// the SoA arena — plus a "session_pool" sub-record with the pool's
/// allocation and reset/rebuild numbers. Written to
/// $POFI_BENCH_DIR/BENCH_runner.json (cwd when unset).
inline void write_runner_bench_json(const char* bench, unsigned threads,
                                    std::size_t campaigns, double parallel_seconds,
                                    double sequential_seconds,
                                    const SessionPool& session) {
  const char* dir = std::getenv("POFI_BENCH_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) + "/BENCH_runner.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_runner.json write FAILED: %s\n", path.c_str());
    return;
  }
  // A parallel-vs-sequential speedup measured with more worker threads than
  // the box has hardware threads says nothing about the runner: the workers
  // timeshare one core and the ratio hovers around 1.0 regardless of code
  // quality. Flag that case so readers (and bench_gate) don't treat the
  // number as a regression signal. hardware_concurrency() == 0 means the
  // count is unknown — also not meaningful.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool speedup_meaningful = hw >= threads && threads > 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"campaigns\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"wall_seconds\": %.3f,\n"
               "  \"campaigns_per_sec\": %.3f,\n"
               "  \"sequential_wall_seconds\": %.3f,\n"
               "  \"sequential_campaigns_per_sec\": %.3f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"speedup_meaningful\": %s,\n"
               "  \"peak_rss_mib\": %.1f,\n"
               "  \"session_pool\": {\n"
               "    \"campaigns\": %zu,\n"
               "    \"steady_allocs_per_entry\": %.1f,\n"
               "    \"resets\": %llu,\n"
               "    \"rebuilds\": %llu\n"
               "  }\n"
               "}\n",
               bench, campaigns, threads, hw,
               parallel_seconds,
               parallel_seconds > 0 ? static_cast<double>(campaigns) / parallel_seconds : 0.0,
               sequential_seconds,
               sequential_seconds > 0 ? static_cast<double>(campaigns) / sequential_seconds
                                      : 0.0,
               parallel_seconds > 0 ? sequential_seconds / parallel_seconds : 0.0,
               speedup_meaningful ? "true" : "false",
               peak_rss_mib(), session.campaigns, session.steady_allocs_per_entry,
               static_cast<unsigned long long>(session.resets),
               static_cast<unsigned long long>(session.rebuilds));
  std::fclose(f);
  std::printf("perf record written: %s\n", path.c_str());
}

/// Pages for a working set of `gib` GiB on `drive`.
inline std::uint64_t wss_pages_for_gib(const ssd::SsdConfig& drive, double gib) {
  return static_cast<std::uint64_t>(gib * (1ULL << 30) /
                                    drive.chip.geometry.page_size_bytes);
}

/// The paper's standard request-size range: 4 KiB .. 1 MiB.
inline void paper_size_range(workload::WorkloadConfig& wl, const ssd::SsdConfig& drive) {
  const std::uint32_t page = drive.chip.geometry.page_size_bytes;
  wl.min_pages = (4u * 1024) / page;
  wl.max_pages = (1024u * 1024) / page;
  if (wl.min_pages == 0) wl.min_pages = 1;
}

}  // namespace pofi::bench
