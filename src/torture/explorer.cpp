#include "torture/explorer.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "runner/experiment_session.hpp"
#include "spec/checkpoint.hpp"
#include "torture/harness.hpp"

namespace pofi::torture {

namespace {

/// One shrink probe's successful reproduction.
struct ProbeHit {
  std::uint64_t boundary = 0;
  AuditReport report;
  std::vector<workload::RequestSpec> requests;  ///< recorded prefix, verbatim
};

[[nodiscard]] platform::PlatformConfig run_platform_config(const TortureConfig& cfg,
                                                           const ExploreOptions& options) {
  platform::PlatformConfig pc = cfg.platform;
  pc.cancel = options.cancel;
  return pc;
}

/// The injection lattice: window_first + i*stride for every boundary < B,
/// capped at window_count points when non-zero.
[[nodiscard]] std::vector<std::uint64_t> plan_points(const TortureConfig& cfg,
                                                     std::uint64_t schedule_events) {
  std::vector<std::uint64_t> points;
  for (std::uint64_t k = cfg.window_first; k < schedule_events; k += cfg.stride) {
    points.push_back(k);
    if (cfg.window_count != 0 && points.size() >= cfg.window_count) break;
    if (cfg.stride == 0) break;  // load_torture forbids this; belt and braces
  }
  return points;
}

/// Sequentially probe one shrink candidate: measure the n-request schedule,
/// then walk its lattice until the first violation. Early-exits, own pooled
/// slot (kept across probes by the caller).
[[nodiscard]] std::optional<ProbeHit> probe_prefix(const TortureConfig& base,
                                                   std::uint64_t requests,
                                                   const ExploreOptions& options,
                                                   runner::SessionSlot& slot) {
  TortureConfig sub = base;
  sub.requests = requests;
  sub.shrink = false;
  const platform::PlatformConfig pc = run_platform_config(sub, options);

  CrashHarness harness(sub);
  platform::TestPlatform& measured =
      runner::ExperimentSession::acquire(slot, sub.drive, pc, sub.seed);
  const std::uint64_t events = harness.measure_schedule(measured);

  for (const std::uint64_t k : plan_points(sub, events)) {
    platform::TestPlatform& tp =
        runner::ExperimentSession::acquire(slot, sub.drive, pc, sub.seed);
    CrashOutcome out = harness.run_crash_point(tp, k);
    if (!out.report.ok()) {
      return ProbeHit{k, std::move(out.report), harness.recorded_requests()};
    }
  }
  return std::nullopt;
}

}  // namespace

ExploreReport explore(const TortureConfig& cfg, const ExploreOptions& options) {
  ExploreReport report;
  const platform::PlatformConfig pc = run_platform_config(cfg, options);

  // --- Golden run: how long is the schedule? --------------------------------
  // The golden run doubles as the pilot: it records a device-state
  // checkpoint every ~snapshot_interval quiescent boundaries, firing exactly
  // the events measure_schedule() would. The pilot is shared read-only by
  // every shard worker below.
  SchedulePilot pilot;
  {
    runner::SessionSlot slot;
    CrashHarness harness(cfg);
    platform::TestPlatform& tp =
        runner::ExperimentSession::acquire(slot, cfg.drive, pc, cfg.seed);
    report.schedule_events = harness.run_pilot(tp, pilot, cfg.snapshot_interval);
  }

  const std::vector<std::uint64_t> points = plan_points(cfg, report.schedule_events);
  report.points_planned = points.size();
  const std::size_t shard_count =
      (points.size() + cfg.shard_points - 1) / cfg.shard_points;

  // --- Fan out across the campaign runner -----------------------------------
  runner::RunnerConfig runner_config = cfg.runner;
  if (options.cancel != nullptr) runner_config.cancel = options.cancel;
  if (options.runner_metrics != nullptr) runner_config.metrics = options.runner_metrics;
  runner::CampaignRunner rn(runner_config, options.sink);

  const std::uint64_t spec_hash = torture_hash(cfg);

  // Resume: same matching rules as campaign resume (hash, shard index, seed,
  // success). Shards that found violations resolve kAuditFailed, which is not
  // a success, so they were never checkpointed and re-run here — the findings
  // list repopulates from them.
  std::unordered_map<std::size_t, spec::CheckpointRecord> cached;
  if (options.resume && !options.checkpoint_path.empty()) {
    spec::CheckpointFile file = spec::load_checkpoint(options.checkpoint_path);
    std::size_t stale = 0;
    for (spec::CheckpointRecord& rec : file.records) {
      const bool matches = rec.spec_hash == spec_hash && runner::is_success(rec.status) &&
                           rec.entry_index < shard_count && rec.seed == cfg.seed;
      if (!matches) {
        ++stale;
        continue;
      }
      cached.insert_or_assign(static_cast<std::size_t>(rec.entry_index), std::move(rec));
    }
    if (options.resume_stats != nullptr) {
      options.resume_stats->records_loaded = file.records.size();
      options.resume_stats->records_reused = cached.size();
      options.resume_stats->malformed_lines = file.malformed_lines;
      options.resume_stats->truncated_tail = file.truncated_tail;
      options.resume_stats->stale_records = stale;
    }
    if (options.runner_metrics != nullptr) {
      options.runner_metrics->add(
          options.runner_metrics->counter("checkpoint.malformed_lines_dropped"),
          file.malformed_lines);
      options.runner_metrics->add(
          options.runner_metrics->counter("checkpoint.stale_records_dropped"), stale);
    }
  }

  std::mutex findings_mutex;
  std::vector<TortureFinding>& findings = report.findings;

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::size_t begin = shard * cfg.shard_points;
    const std::size_t end = std::min(points.size(), begin + cfg.shard_points);
    const std::string label = cfg.name + "-shard" + std::to_string(shard) + "[" +
                              std::to_string(points[begin]) + ".." +
                              std::to_string(points[end - 1]) + "]";
    if (auto it = cached.find(shard); it != cached.end()) {
      rn.add_completed(label, std::move(it->second.result));
      continue;
    }
    rn.add(label, [&cfg, &options, &points, &findings, &findings_mutex, &pilot, label,
                   begin, end](runner::SessionSlot& slot) {
      platform::ExperimentResult res;
      res.name = label;
      const platform::PlatformConfig shard_pc = run_platform_config(cfg, options);
      CrashHarness harness(cfg);
      for (std::size_t i = begin; i < end; ++i) {
        // Restore the nearest pilot checkpoint at or before the point and
        // replay only the residual window. Fall back to a full replay when
        // no checkpoint covers the point.
        const HarnessSnapshot* snap = pilot.nearest_at_or_before(points[i]);
        CrashOutcome out;
        if (snap != nullptr) {
          platform::TestPlatform& tp =
              runner::ExperimentSession::acquire_for_restore(slot, cfg.drive, shard_pc);
          out = harness.run_crash_point_from(tp, pilot, *snap, points[i]);
        } else {
          platform::TestPlatform& tp =
              runner::ExperimentSession::acquire(slot, cfg.drive, shard_pc, cfg.seed);
          out = harness.run_crash_point(tp, points[i]);
        }
        res.requests_submitted += harness.recorded_requests().size();
        if (out.injected) ++res.faults_injected;
        if (!out.report.ok()) {
          res.audit_violations += out.report.violations.size();
          const std::lock_guard<std::mutex> lock(findings_mutex);
          findings.push_back({points[i], std::move(out.report)});
        }
      }
      return res;
    });
  }

  std::unique_ptr<spec::CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    writer = std::make_unique<spec::CheckpointWriter>(options.checkpoint_path);
    rn.set_result_hook([spec_hash, seed = cfg.seed, w = writer.get()](
                           std::size_t idx, const runner::CampaignRunner::Outcome& out) {
      if (!runner::is_success(out.status)) return;  // violations re-run on resume
      spec::CheckpointRecord rec;
      rec.spec_hash = spec_hash;
      rec.entry_index = idx;
      rec.seed = seed;
      rec.label = out.label;
      rec.status = out.status;
      rec.wall_seconds = out.wall_seconds;
      rec.result = out.result;
      w->append(rec);
    });
  }

  report.outcomes = rn.run();

  // --- Aggregate (submission order, so identical at any thread count) -------
  for (std::size_t shard = 0; shard < report.outcomes.size(); ++shard) {
    const runner::CampaignRunner::Outcome& out = report.outcomes[shard];
    const std::size_t begin = shard * cfg.shard_points;
    const std::size_t size = std::min(points.size(), begin + cfg.shard_points) - begin;
    if (runner::is_success(out.status) || out.status == runner::CampaignStatus::kAuditFailed) {
      report.points_explored += size;
      report.points_injected += out.result.faults_injected;
      report.total_violations += out.result.audit_violations;
    }
  }
  // Concurrent shards appended findings in completion order; boundary order
  // is the canonical one (each lattice point appears at most once).
  std::sort(findings.begin(), findings.end(),
            [](const TortureFinding& a, const TortureFinding& b) {
              return a.boundary < b.boundary;
            });

  if (options.runner_metrics != nullptr) {
    obs::MetricRegistry& m = *options.runner_metrics;
    m.add(m.counter("torture.points_explored"), report.points_explored);
    m.add(m.counter("torture.points_injected"), report.points_injected);
    m.add(m.counter("torture.violations"), report.total_violations);
  }

  // --- Shrink the first failure into a minimal repro ------------------------
  if (!findings.empty() && cfg.shrink) {
    runner::SessionSlot slot;  // one pooled stack serves every probe
    // The full-size prefix must reproduce standalone (it just did, in the
    // sweep above, with identical determinism ingredients) — probe it first
    // so the binary search always holds a witness for its upper bound.
    std::optional<ProbeHit> best = probe_prefix(cfg, cfg.requests, options, slot);
    if (best.has_value()) {
      std::uint64_t lo = 1;
      std::uint64_t hi = cfg.requests;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (std::optional<ProbeHit> hit = probe_prefix(cfg, mid, options, slot)) {
          best = std::move(hit);
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }

      TortureConfig repro = cfg;
      repro.name = cfg.name + "-repro";
      repro.requests = hi;
      repro.window_first = best->boundary;
      repro.window_count = 1;
      repro.stride = 1;
      repro.shrink = false;
      // Replay the recorded prefix verbatim: the repro no longer depends on
      // the synthetic workload knobs, only on the pace stream and the seed.
      repro.workload.replay = best->requests;

      report.shrunk = true;
      report.repro_requests = hi;
      report.repro_boundary = best->boundary;
      report.repro = to_json(repro);
      if (!options.repro_path.empty()) {
        std::ofstream out(options.repro_path, std::ios::binary | std::ios::trunc);
        out << spec::dump(report.repro) << "\n";
      }
    }
  }

  return report;
}

}  // namespace pofi::torture
