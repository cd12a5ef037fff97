#include "spec/campaign.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "runner/experiment_session.hpp"
#include "sim/rng.hpp"
#include "spec/checkpoint.hpp"
#include "spec/codec.hpp"
#include "spec/version.hpp"
#include "stats/table.hpp"

namespace pofi::spec {

namespace {

// Expansion cap: a sweep that explodes past this is almost certainly a typo
// (and would never finish), so fail it at load time.
constexpr std::size_t kMaxEntries = 100'000;

/// Short scalar form for auto-generated entry names ("plp=true").
std::string name_form(const Value& v) {
  if (v.is_string()) return v.as_string();
  return canonical(v);
}

/// Last segment of a dotted sweep path ("experiment.workload.max_pages" ->
/// "max_pages").
std::string_view last_segment(std::string_view path) {
  const auto dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(dot + 1);
}

/// The three merge roots an overlay or sweep axis may target.
bool known_section(std::string_view path) {
  const auto dot = path.find('.');
  const auto head = dot == std::string_view::npos ? path : path.substr(0, dot);
  return head == "platform" || head == "drive" || head == "experiment";
}

/// Base {platform, drive, experiment} document: clone the three sections
/// (empty objects when absent) so merging never touches the source.
Value base_doc(const Value& doc) {
  Value base = Value::object();
  for (const char* section : {"platform", "drive", "experiment"}) {
    const Value* v = doc.find(section);
    if (v != nullptr && !v->is_object()) {
      throw Error("expected an object", v->line, v->col, section);
    }
    base.set(section, v != nullptr ? *v : Value::object());
  }
  return base;
}

/// Cartesian expansion of the "sweep" object: file-order axes, first axis
/// outermost. Each combination also names its entry unless the sweep itself
/// sets experiment.name.
std::vector<Value> expand_sweep(const Value& doc, const Value& sweep) {
  if (!sweep.is_object()) {
    throw Error("expected an object of {path: [values...]} axes", sweep.line, sweep.col,
                "sweep");
  }
  for (const auto& [path, axis] : sweep.members()) {
    if (!known_section(path)) {
      throw Error(
          "sweep paths must start with \"platform.\", \"drive.\" or \"experiment.\"",
          axis.line, axis.col, path);
    }
    if (!axis.is_array() || axis.items().empty()) {
      throw Error("expected a non-empty array of values", axis.line, axis.col, path);
    }
  }

  const Value base = base_doc(doc);
  const std::string base_name = [&] {
    const Value* n = base.find_path("experiment.name");
    return n != nullptr && n->is_string() ? n->as_string()
                                          : platform::ExperimentSpec{}.name;
  }();

  std::vector<Value> out;
  // Odometer over the axes; index 0 (the first axis in the file) rolls last,
  // making it the outermost loop.
  const auto& axes = sweep.members();
  std::vector<std::size_t> idx(axes.size(), 0);
  for (;;) {
    Value merged = base;
    bool name_swept = false;
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const auto& [path, axis] = axes[a];
      const Value& v = axis.items()[idx[a]];
      merged.set_path(path, v);
      if (path == "experiment.name") {
        name_swept = true;
      } else {
        suffix += suffix.empty() ? "[" : " ";
        suffix += std::string(last_segment(path)) + "=" + name_form(v);
      }
    }
    if (!name_swept && !suffix.empty()) {
      merged.set_path("experiment.name", base_name + suffix + "]");
    }
    out.push_back(std::move(merged));
    if (out.size() > kMaxEntries) {
      throw Error("sweep expands to more than " + std::to_string(kMaxEntries) + " entries",
                  sweep.line, sweep.col, "sweep");
    }

    // Advance the odometer, last axis fastest.
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].second.items().size()) break;
      idx[a] = 0;
      if (a == 0) return out;
    }
  }
}

std::vector<Value> expand_entries(const Value& doc, const Value& entries) {
  if (!entries.is_array() || entries.items().empty()) {
    throw Error("expected a non-empty array of overlay objects", entries.line, entries.col,
                "entries");
  }
  const Value base = base_doc(doc);
  std::vector<Value> out;
  out.reserve(entries.items().size());
  for (const auto& overlay : entries.items()) {
    if (!overlay.is_object()) {
      throw Error("expected an overlay object", overlay.line, overlay.col, "entries");
    }
    for (const auto& [key, m] : overlay.members()) {
      if (!known_section(key)) {
        throw Error("unknown key in campaign entry (expected \"platform\", \"drive\" or "
                    "\"experiment\")",
                    m.line, m.col, key);
      }
    }
    Value merged = base;
    merged.merge_from(overlay);
    out.push_back(std::move(merged));
  }
  return out;
}

}  // namespace

CampaignSpec load_campaign(const Value& doc) {
  if (!doc.is_object()) {
    throw Error("campaign spec must be a JSON object", doc.line, doc.col, "campaign");
  }

  CampaignSpec spec;
  spec.document = doc;
  // The provenance hash covers campaign *content* only: "runner" is execution
  // detail (results are bit-identical at any thread count), so two runs of
  // the same campaign at different --threads stamp the same hash.
  Value hashed = Value::object();
  for (const auto& [key, m] : doc.members()) {
    if (key != "runner") hashed.set(key, m);
  }
  spec.hash = content_hash(hashed);

  const Value* sweep = nullptr;
  const Value* entries = nullptr;
  const Value* units = &doc;  // where a units/seed conflict is reported
  for (const auto& [key, m] : doc.members()) {
    if (key == "name") {
      spec.name = read_string(m, key);
    } else if (key == "seed") {
      spec.master_seed = read_u64(m, key);
    } else if (key == "units") {
      spec.units = read_u32(m, key, 1, 100'000);
      units = &m;
    } else if (key == "runner") {
      apply_json(spec.runner, m);
    } else if (key == "platform" || key == "drive" || key == "experiment") {
      // Consumed by base_doc() below.
    } else if (key == "sweep") {
      sweep = &m;
    } else if (key == "entries") {
      entries = &m;
    } else {
      throw Error("unknown key in campaign spec", m.line, m.col, key);
    }
  }
  if (sweep != nullptr && entries != nullptr) {
    throw Error("\"sweep\" and \"entries\" are mutually exclusive", sweep->line, sweep->col,
                "sweep");
  }

  std::vector<Value> docs;
  if (sweep != nullptr) {
    docs = expand_sweep(doc, *sweep);
  } else if (entries != nullptr) {
    docs = expand_entries(doc, *entries);
  } else {
    docs.push_back(base_doc(doc));
  }

  std::uint64_t flat_index = 0;
  for (const Value& merged : docs) {
    CampaignEntry entry;
    apply_json(entry.platform, *merged.find("platform"));
    entry.drive = drive_from_json(*merged.find("drive"));
    apply_json(entry.experiment, *merged.find("experiment"));
    check_workload_fits(entry.experiment.workload, entry.drive, *merged.find("experiment"));

    const bool seed_pinned = merged.find_path("experiment.seed") != nullptr;
    if (seed_pinned && spec.units > 1) {
      throw Error("\"units\" replication requires derived seeds; drop the explicit "
                  "experiment seed or set units to 1",
                  units->line, units->col, "units");
    }

    for (std::uint32_t u = 0; u < spec.units; ++u) {
      CampaignEntry copy = entry;
      if (spec.units > 1) {
        copy.experiment.name += "-u" + std::to_string(u + 1);
        copy.label = "unit-" + std::to_string(u + 1);
      } else {
        copy.label = copy.experiment.name;
      }
      if (!seed_pinned) {
        copy.experiment.seed = sim::derive_seed(spec.master_seed, flat_index);
      }
      ++flat_index;
      spec.entries.push_back(std::move(copy));
    }
  }
  return spec;
}

CampaignSpec load_campaign_file(const std::string& path) {
  return load_campaign(parse_file(path));
}

std::vector<runner::CampaignRunner::Outcome> run_campaign(const CampaignSpec& spec,
                                                          runner::ProgressSink* sink) {
  RunCampaignOptions options;
  options.sink = sink;
  return run_campaign(spec, options);
}

std::vector<runner::CampaignRunner::Outcome> run_campaign(const CampaignSpec& spec,
                                                          const RunCampaignOptions& options) {
  runner::RunnerConfig config = spec.runner;
  if (options.cancel != nullptr) config.cancel = options.cancel;
  if (options.runner_metrics != nullptr) config.metrics = options.runner_metrics;
  runner::CampaignRunner rn(config, options.sink);

  // Resume: index the checkpoint's reusable records by entry index. A record
  // is reusable only when the content hash, the flat entry index and the
  // resolved seed all still match this spec, and its status is a success —
  // anything else (edited spec, quarantined entry, foreign campaign) is
  // ignored and the entry simply re-runs. Later duplicates win: if a resumed
  // run was itself interrupted, the freshest record is authoritative.
  std::unordered_map<std::size_t, CheckpointRecord> cached;
  if (options.resume && !options.checkpoint_path.empty()) {
    CheckpointFile file = load_checkpoint(options.checkpoint_path);
    std::size_t stale = 0;
    for (CheckpointRecord& rec : file.records) {
      const bool matches = rec.spec_hash == spec.hash && runner::is_success(rec.status) &&
                           rec.entry_index < spec.entries.size() &&
                           spec.entries[rec.entry_index].experiment.seed == rec.seed;
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
      // Surface silent tolerance: dropped lines/records are countable, not
      // just stderr noise, so dashboards can alarm on checkpoint rot.
      options.runner_metrics->add(
          options.runner_metrics->counter("checkpoint.malformed_lines_dropped"),
          file.malformed_lines);
      options.runner_metrics->add(
          options.runner_metrics->counter("checkpoint.stale_records_dropped"), stale);
    }
  }

  for (std::size_t i = 0; i < spec.entries.size(); ++i) {
    const CampaignEntry& entry = spec.entries[i];
    if (auto it = cached.find(i); it != cached.end()) {
      rn.add_completed(entry.label, std::move(it->second.result));
      continue;
    }
    // The worker's slot keeps one device stack alive across entries;
    // acquire() resets it in place, or rebuilds it on a config change.
    rn.add(entry.label,
           [&entry, cancel = options.cancel,
            metrics = options.collect_metrics](runner::SessionSlot& slot) {
             platform::PlatformConfig pc = entry.platform;
             pc.cancel = cancel;
             if (metrics) pc.metrics = true;
             platform::TestPlatform& tp = runner::ExperimentSession::acquire(
                 slot, entry.drive, pc, entry.experiment.seed);
             return tp.run(entry.experiment);
           });
  }

  std::unique_ptr<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    writer = std::make_unique<CheckpointWriter>(options.checkpoint_path);
    rn.set_result_hook(
        [&spec, w = writer.get()](std::size_t idx, const runner::CampaignRunner::Outcome& out) {
          if (!runner::is_success(out.status)) return;  // re-run failures next time
          CheckpointRecord rec;
          rec.spec_hash = spec.hash;
          rec.entry_index = idx;
          rec.seed = spec.entries[idx].experiment.seed;
          rec.label = out.label;
          rec.status = out.status;
          rec.wall_seconds = out.wall_seconds;
          rec.result = out.result;
          w->append(rec);
        });
  }
  return rn.run();
}

std::vector<CampaignRow> campaign_rows(std::vector<runner::CampaignRunner::Outcome> outcomes) {
  std::vector<CampaignRow> rows;
  rows.reserve(outcomes.size());
  for (auto& out : outcomes) {
    switch (out.status) {
      case runner::CampaignStatus::kOk:
      case runner::CampaignStatus::kTimedOut:
      case runner::CampaignStatus::kSkippedCached:
        rows.push_back({std::move(out.label), std::move(out.result), out.status});
        break;
      case runner::CampaignStatus::kFailed:
      case runner::CampaignStatus::kQuarantined:
      case runner::CampaignStatus::kAuditFailed:
        throw std::runtime_error("campaign \"" + out.label + "\" " + to_string(out.status) +
                                 ": " + out.error);
      case runner::CampaignStatus::kCancelled:
      case runner::CampaignStatus::kSkipped:
      case runner::CampaignStatus::kPending:
        break;  // fail-fast or cancellation stopped it before it finished
    }
  }
  return rows;
}

std::vector<CampaignRow> run_campaign_rows(const CampaignSpec& spec,
                                           runner::ProgressSink* sink) {
  return campaign_rows(run_campaign(spec, sink));
}

namespace {

/// The summary columns, shared by the table and its CSV export.
const std::vector<std::string> kSummaryColumns = {
    "campaign",   "faults",     "requests",       "data failures", "FWA",
    "IO errors",  "loss/fault", "responded IOPS", "mean Q2C us"};

/// One row's cells in kSummaryColumns order: rounded for the table, the
/// shortest round-trip form for the CSV.
std::vector<std::string> summary_cells(const CampaignRow& row, bool full_precision) {
  const platform::ExperimentResult& r = row.result;
  const auto real = [full_precision](double v, int precision) {
    return full_precision ? canonical(Value(v)) : stats::Table::fmt(v, precision);
  };
  return {row.label,
          stats::Table::fmt(std::uint64_t{r.faults_injected}),
          stats::Table::fmt(r.requests_submitted),
          stats::Table::fmt(r.data_failures),
          stats::Table::fmt(r.fwa_failures),
          stats::Table::fmt(r.io_errors),
          real(r.data_failures_per_fault(), 2),
          real(r.responded_iops, 0),
          real(r.mean_latency_us, 0)};
}

}  // namespace

std::string summary_table(const std::vector<CampaignRow>& rows) {
  stats::Table table(kSummaryColumns);
  for (const CampaignRow& row : rows) table.add_row(summary_cells(row, false));
  return table.render();
}

stats::CsvWriter summary_csv(const std::vector<CampaignRow>& rows,
                             const CampaignSpec& campaign) {
  std::size_t ok = 0, timed_out = 0, restored = 0;
  for (const CampaignRow& row : rows) {
    ok += row.status == runner::CampaignStatus::kOk;
    timed_out += row.status == runner::CampaignStatus::kTimedOut;
    restored += row.status == runner::CampaignStatus::kSkippedCached;
  }
  stats::CsvWriter csv(kSummaryColumns);
  csv.add_comment("spec: " + hash_string(campaign.hash));
  csv.add_comment(std::string("build: ") + pofi_version());
  csv.add_comment("entries: ok=" + std::to_string(ok) + " timed-out=" +
                  std::to_string(timed_out) + " restored=" + std::to_string(restored));
  for (const CampaignRow& row : rows) csv.add_row(summary_cells(row, true));
  return csv;
}

}  // namespace pofi::spec
