// Shared helpers for the figure/table reproduction benches.
//
// Scale note: the paper's campaigns (hundreds of faults, tens of thousands
// of requests per experiment) run for days on physical hardware. The
// simulated campaigns reproduce the same *per-fault* statistics at reduced
// fault counts so the whole bench suite completes in minutes; every bench
// prints its scale next to the paper's.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "platform/test_platform.hpp"
#include "runner/progress.hpp"
#include "runner/runner_config.hpp"
#include "spec/campaign.hpp"
#include "spec/version.hpp"
#include "stats/csv.hpp"
#include "ssd/presets.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace pofi::bench {

/// The drive used by the workload-parameter studies (SSD-A, the paper's
/// oldest commodity MLC drive, exhibits every failure class).
inline ssd::SsdConfig study_drive(const ssd::PresetOptions& opts = {}) {
  return ssd::make_preset(ssd::VendorModel::kA, opts);
}

/// Run one campaign on a fresh platform.
inline platform::ExperimentResult run_campaign(const ssd::SsdConfig& drive,
                                               const platform::ExperimentSpec& spec,
                                               const platform::PlatformConfig& pc = {}) {
  platform::TestPlatform tp(drive, pc, spec.seed);
  return tp.run(spec);
}

/// Worker threads for parallel sweeps: POFI_THREADS overrides; default 0
/// resolves to one worker per hardware thread.
inline unsigned bench_threads() {
  if (const char* env = std::getenv("POFI_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;
}

/// Path of a committed campaign spec: $POFI_SPEC_DIR (runtime) overrides
/// the compiled-in source-tree `specs/` directory.
inline std::string spec_path(const char* file) {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  return std::string(dir == nullptr ? POFI_SPEC_DIR : dir) + "/" + file;
}

/// Load a figure bench's committed spec; POFI_THREADS (when set) overrides
/// the spec's runner thread count, matching the pre-spec bench behaviour.
inline spec::CampaignSpec load_spec(const char* file) {
  spec::CampaignSpec campaign = spec::load_campaign_file(spec_path(file));
  if (std::getenv("POFI_THREADS") != nullptr) {
    campaign.runner.threads = bench_threads();
  }
  return campaign;
}

/// Result of a spec-driven bench campaign: summary rows plus the outcome
/// taxonomy of the run that produced them (for CSV provenance comments).
struct SpecRun {
  std::vector<spec::CampaignRow> rows;
  std::size_t ok = 0;
  std::size_t retried = 0;
  std::size_t timed_out = 0;
  std::size_t restored = 0;  ///< spliced in from the checkpoint (--resume)
  std::string checkpoint_path;  ///< empty when checkpointing is off
};

/// Run a figure bench's campaign through the resilient spec runner. When
/// POFI_CHECKPOINT_DIR is set, the bench checkpoints every finished entry to
/// <dir>/<name>.checkpoint.jsonl and resumes from it — a killed multi-hour
/// figure sweep restarts where it stopped, with bit-identical series. A
/// failed or quarantined entry throws: a figure with silently missing points
/// is worse than no figure.
inline SpecRun run_spec_campaign(const spec::CampaignSpec& campaign, const char* name,
                                 runner::ProgressSink* sink = nullptr) {
  spec::RunCampaignOptions options;
  options.sink = sink;
  if (const char* dir = std::getenv("POFI_CHECKPOINT_DIR")) {
    options.checkpoint_path = std::string(dir) + "/" + name + ".checkpoint.jsonl";
    options.resume = true;
  }
  SpecRun run;
  run.checkpoint_path = options.checkpoint_path;
  auto outcomes = spec::run_campaign(campaign, options);
  for (const auto& out : outcomes) {
    run.ok += out.status == runner::CampaignStatus::kOk;
    run.retried += out.status == runner::CampaignStatus::kRetriedOk;
    run.timed_out += out.status == runner::CampaignStatus::kTimedOut;
    run.restored += out.status == runner::CampaignStatus::kSkippedCached;
  }
  run.rows = spec::campaign_rows(std::move(outcomes));
  return run;
}

/// Provenance comments for exported CSV: the campaign's canonical content
/// hash plus the build that produced the series.
inline void stamp_provenance(stats::CsvWriter& csv, const spec::CampaignSpec& campaign) {
  csv.add_comment("spec: " + spec::hash_string(campaign.hash));
  csv.add_comment(std::string("build: ") + spec::pofi_version());
}

/// Provenance + outcome taxonomy: how each series point was obtained (fresh,
/// retried, over budget, restored from a checkpoint), so a CSV consumer can
/// tell a clean sweep from a degraded or resumed one.
inline void stamp_provenance(stats::CsvWriter& csv, const spec::CampaignSpec& campaign,
                             const SpecRun& run) {
  stamp_provenance(csv, campaign);
  csv.add_comment("entries: ok=" + std::to_string(run.ok) +
                  " retried-ok=" + std::to_string(run.retried) +
                  " timed-out=" + std::to_string(run.timed_out) +
                  " restored=" + std::to_string(run.restored));
  if (!run.checkpoint_path.empty()) {
    csv.add_comment("checkpoint: " + run.checkpoint_path);
  }
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

/// When POFI_CSV_DIR is set, export the bench's series for plotting.
inline void maybe_export_csv(const char* name, const stats::CsvWriter& csv) {
  const char* dir = std::getenv("POFI_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  if (csv.write_file(path)) {
    std::printf("csv written: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv write FAILED: %s\n", path.c_str());
  }
}

inline void print_result_row(const platform::ExperimentResult& r, const char* label) {
  std::printf(
      "  %-14s faults=%-4u reqs=%-6llu dataFail=%-5llu FWA=%-5llu ioErr=%-4llu "
      "perFault=%.2f\n",
      label, r.faults_injected, static_cast<unsigned long long>(r.requests_submitted),
      static_cast<unsigned long long>(r.data_failures),
      static_cast<unsigned long long>(r.fwa_failures),
      static_cast<unsigned long long>(r.io_errors), r.data_failures_per_fault());
}

}  // namespace pofi::bench
