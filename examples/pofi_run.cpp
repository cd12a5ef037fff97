// pofi_run: command-line fault-injection campaigns and crash-point sweeps.
//
// The downstream-user entry point: a run is a declarative spec (src/spec,
// see specs/) plus --set overrides, and the paper-style failure report comes
// out — no code required. A spec whose file has a "torture" section is a
// crash-point sweep (src/torture); any other spec is a campaign. Both kinds
// share one run path: progress sink, checkpoint/resume, cancellation, the
// --metrics runner sidecar and the outcome -> exit-code fold.
//
//   pofi_run --spec specs/quickstart.json
//   pofi_run --spec specs/quickstart.json --set drive.preset=B --set experiment.faults=50
//   pofi_run --spec specs/fig7_request_size.json --set runner.threads=2
//   pofi_run --spec specs/quickstart.json --dump-spec
//   pofi_run --spec specs/fig8_iops.json --csv fig8.csv
//   pofi_run --spec specs/vendor_qualification.json --threads 4 --progress jsonl
//   pofi_run --spec specs/torture_smoke.json --repro-out repro.json
//   pofi_run --help
//
// The spec codec alone validates the run's values; --dump-spec prints the
// document after the overrides once it validates, and its canonical content
// hash is stamped into the report for provenance.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/report.hpp"
#include "runner/progress.hpp"
#include "spec/campaign.hpp"
#include "spec/codec.hpp"
#include "spec/obs_json.hpp"
#include "spec/version.hpp"
#include "stats/table.hpp"
#include "torture/explorer.hpp"
#include "torture/torture_spec.hpp"

using namespace pofi;

namespace {

// Exit codes (documented in --help; keep the table and this enum in sync).
enum ExitCode : int {
  kExitOk = 0,          ///< every campaign completed successfully
  kExitRuntime = 1,     ///< runtime failure (fail-fast campaign failure, IO)
  kExitUsage = 2,       ///< invalid usage or campaign spec
  kExitDegraded = 3,    ///< quarantined and/or over-budget campaigns
  kExitCancelled = 4,   ///< run cancelled by SIGINT/SIGTERM
  kExitAuditFailed = 5, ///< a crash sweep found recovery-invariant violations
};

/// Cooperative cancellation flag, shared by the signal handler, the runner
/// and every entry's simulator. Setting it is the only thing the handler
/// does (async-signal-safe); in-flight entries unwind at their next event
/// boundary and the checkpoint keeps every already-finished row.
std::atomic<bool> g_cancel{false};

extern "C" void handle_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }

struct Options {
  unsigned threads = 0;
  bool threads_set = false;
  std::string progress = "console";
  std::string spec_path;
  std::string repro_out;
  std::string checkpoint_path;
  std::string metrics_dir;
  std::string csv_path;
  bool resume = false;
  bool dump_spec = false;
  std::vector<std::string> sets;  ///< --set PATH=VALUE overrides, in order
};

[[noreturn]] void print_help() {
  std::printf(
      "pofi_run - power-outage fault injection campaigns (DATE'18 reproduction)\n\n"
      "usage: pofi_run --spec FILE.json [options]\n\n"
      "A run is a spec file plus --set overrides; every workload, drive\n"
      "and platform parameter is a spec key (see specs/ and EXPERIMENTS.md).\n"
      "A spec with a \"torture\" section is a crash-point sweep: it injects a\n"
      "power fault at every event boundary of its window, audits recovery\n"
      "invariants after each remount, and shrinks any violation into a minimal\n"
      "repro spec. Any other spec is a campaign.\n\n"
      "  --spec FILE.json     run a campaign or crash-sweep spec (see specs/)\n"
      "  --repro-out FILE     where a crash sweep writes the shrunk repro spec\n"
      "  --dump-spec          validate the spec with its overrides applied, print\n"
      "                       it as JSON and exit\n"
      "  --set PATH=VALUE     override a spec key (dotted path, JSON value;\n"
      "                       e.g. --set experiment.faults=50); repeatable. An\n"
      "                       invalid value exits 2 naming its --set argument\n"
      "  --threads N          runner worker threads; 0 = hardware (default 0;\n"
      "                       same as --set runner.threads=N)\n"
      "  --progress console|jsonl|off   progress reporting (default console)\n"
      "  --checkpoint FILE    append each finished campaign or sweep shard to a\n"
      "                       durable JSONL checkpoint (crash-safe; see --resume)\n"
      "  --resume             skip what --checkpoint FILE already records; merged\n"
      "                       results are bit-identical to an uninterrupted run\n"
      "                       of the same spec\n"
      "  --metrics DIR        write a runner.json sidecar into DIR (worker\n"
      "                       utilization, checkpoint.* and torture.* counters);\n"
      "                       a campaign also collects per-experiment telemetry\n"
      "                       (src/obs), one JSON file per entry. Each file is\n"
      "                       stamped with the spec content hash\n"
      "  --csv FILE           write a campaign's summary columns to FILE as CSV,\n"
      "                       one row per campaign at full precision, stamped\n"
      "                       with the spec content hash, build and entry\n"
      "                       outcome counts\n"
      "  --version            print the build-provenance stamp and exit\n"
      "  --help               this text\n"
      "\n"
      "resilience (spec \"runner\" section, or --set runner.KEY=VALUE):\n"
      "  campaign_timeout_seconds S   per-campaign wall-clock budget\n"
      "  (platform.max_sim_events caps simulator events per campaign)\n"
      "\n"
      "exit status:\n"
      "  0  every campaign completed successfully\n"
      "  1  runtime failure (fail-fast campaign failure, IO error)\n"
      "  2  invalid usage (one line on stderr) or campaign spec\n"
      "  3  quarantined and/or over-budget campaigns (suite still completed)\n"
      "  4  cancelled by SIGINT/SIGTERM (checkpointed rows were kept)\n"
      "  5  a crash sweep found recovery-invariant violations\n");
  std::exit(kExitOk);
}

/// Every usage error is one line on stderr and exit 2; stdout stays empty.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "pofi_run: %s (see --help)\n", message.c_str());
  std::exit(kExitUsage);
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

/// A malformed flag value exits 2 naming the flag, before any campaign or
/// thread starts.
[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const std::string& expected) {
  usage_error(flag + " expects " + expected + ", got \"" + text + "\"");
}

/// Parse the whole token `text` as a T in [lo, hi]: trailing junk, an
/// overflow, a value out of range (a negative count included) or NaN is
/// a bad value.
template <typename T>
T number(const std::string& flag, const char* text, T lo, T hi) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
    bad_value(flag, text,
              "a number in [" + spec::canonical(spec::Value(lo)) + ", " +
                  spec::canonical(spec::Value(hi)) + "]");
  }
  return v;
}

/// The index of `text` among `choices`; anything else is a bad value.
std::size_t choice(const std::string& flag, const char* text,
                   std::initializer_list<const char*> choices) {
  std::string expected = "one of";
  std::size_t i = 0;
  for (const char* c : choices) {
    if (std::strcmp(c, text) == 0) return i;
    expected += (i++ == 0 ? " " : "|") + std::string(c);
  }
  bad_value(flag, text, expected);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&] { return next_arg(argc, argv, i); };
    if (a == "--help" || a == "-h") print_help();
    else if (a == "--version") {
      // The provenance stamp written into reports/CSV/metrics artifacts,
      // plus enough build detail to reproduce the binary.
      std::printf("%s\n", spec::pofi_version());
#if defined(__VERSION__)
      std::printf("compiler: %s\n", __VERSION__);
#endif
      std::exit(0);
    }
    else if (a == "--spec") o.spec_path = value();
    else if (a == "--repro-out") o.repro_out = value();
    else if (a == "--metrics") o.metrics_dir = value();
    else if (a == "--csv") o.csv_path = value();
    else if (a == "--checkpoint") o.checkpoint_path = value();
    else if (a == "--resume") o.resume = true;
    else if (a == "--dump-spec") o.dump_spec = true;
    else if (a == "--set") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        usage_error("--set expects PATH=VALUE, got \"" + kv + "\"");
      }
      o.sets.push_back(kv);
    }
    else if (a == "--threads") {
      o.threads = number<unsigned>(a, value(), 0, 1024);
      o.threads_set = true;
    } else if (a == "--progress") {
      o.progress = value();
      (void)choice(a, o.progress.c_str(), {"console", "jsonl", "off"});
    } else {
      usage_error("unknown option " + a);
    }
  }
  if (o.spec_path.empty()) usage_error("no spec given: pass --spec FILE");
  if (o.resume && o.checkpoint_path.empty()) {
    usage_error("--resume requires --checkpoint FILE");
  }
  return o;
}

/// Every value an override brings in, and every object its path creates,
/// is located at line -(k+1) for the k-th --set argument (a file's own tokens
/// sit at line >= 1, synthesised values at 0). A spec error raised on one of
/// them then names the argument instead of a position in the file.
void locate_override(spec::Value& v, int line) {
  v.line = line;
  v.col = 0;
  for (auto& item : v.items()) locate_override(item, line);
  for (auto& member : v.members()) locate_override(member.second, line);
}

/// The --set argument a spec error came from, or nullptr for the file.
const std::string* override_of(const spec::Error& e, const Options& o) {
  if (e.line() >= 0) return nullptr;
  const auto k = static_cast<std::size_t>(-e.line() - 1);
  return k < o.sets.size() ? &o.sets[k] : nullptr;
}

/// Apply the --threads and --set overrides, in order. VALUE parses as JSON
/// when it can (numbers, booleans, arrays), otherwise it is taken as a bare
/// string ("--set drive.preset=B").
void apply_overrides(spec::Value& doc, const Options& o) {
  if (o.threads_set) doc.set_path("runner.threads", std::uint64_t{o.threads});
  for (std::size_t k = 0; k < o.sets.size(); ++k) {
    const std::string& kv = o.sets[k];
    const auto eq = kv.find('=');
    const std::string path = kv.substr(0, eq);
    const std::string raw = kv.substr(eq + 1);
    spec::Value value;
    try {
      value = spec::parse(raw);
    } catch (const spec::Error&) {
      value = spec::Value(raw);
    }
    const int line = -static_cast<int>(k) - 1;
    locate_override(value, line);
    doc.set_path(path, std::move(value));
    // Objects set_path created on the way have no location of their own.
    spec::Value* node = &doc;
    for (std::string_view rest = path; node != nullptr;) {
      const auto dot = rest.find('.');
      node = node->find(rest.substr(0, dot));
      if (node != nullptr && node->line == 0) node->line = line;
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot + 1);
    }
  }
}

/// Write `text` and a newline to `path`; false (with a stderr line) on failure.
bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text << "\n";
  if (!f.good()) std::fprintf(stderr, "pofi_run: failed writing %s\n", path.string().c_str());
  return f.good();
}

/// The provenance keys that lead every --metrics file: spec name, content
/// hash and build.
spec::Value metrics_doc(const std::string& name, const std::string& hash) {
  spec::Value v = spec::Value::object();
  v.set("campaign", name);
  v.set("spec", hash);
  v.set("version", spec::pofi_version());
  return v;
}

/// A --metrics file: its name within the directory, and its document.
using MetricsFile = std::pair<std::string, spec::Value>;

/// The run path both spec kinds share: the progress sink, checkpoint/resume,
/// cancellation and the runner registry behind --metrics, wired into the
/// spec::RunOptions that run_campaign and explore take.
class SharedRun {
 public:
  /// `console` draws console progress (a single-entry campaign prints its
  /// report and nothing else).
  SharedRun(const Options& o, bool console) : o_(o) {
    if (o.progress == "jsonl") {
      sink_ = std::make_unique<runner::JsonlProgress>(std::cout);
    } else if (o.progress == "console" && console) {
      sink_ = std::make_unique<runner::ConsoleProgress>(stderr);
    }
    options_.sink = sink_.get();
    options_.checkpoint_path = o.checkpoint_path;
    options_.resume = o.resume;
    options_.cancel = &g_cancel;
    options_.resume_stats = &resume_stats_;
    if (!o.metrics_dir.empty()) options_.runner_metrics = &registry_;
  }

  // options_ points into this object.
  SharedRun(const SharedRun&) = delete;
  SharedRun& operator=(const SharedRun&) = delete;

  [[nodiscard]] const spec::RunOptions& options() const { return options_; }

  /// After the run: warn about what --resume dropped, then write the
  /// --metrics files — `entries` plus a runner.json sidecar of the runner
  /// registry. False when a file could not be written.
  bool finish(const std::string& name, const std::string& hash,
              std::vector<MetricsFile> entries = {}) {
    // Surface what the resume splice silently tolerated: torn or corrupt
    // lines and records that no longer match the spec must not masquerade
    // as a clean resume.
    const spec::ResumeStats& rs = resume_stats_;
    if (o_.resume && (rs.malformed_lines != 0 || rs.stale_records != 0)) {
      std::fprintf(stderr,
                   "pofi_run: warning: resume from %s reused %zu record(s) but dropped "
                   "%zu unparseable line(s)%s and %zu stale record(s); dropped entries re-ran\n",
                   o_.checkpoint_path.c_str(), rs.records_reused, rs.malformed_lines,
                   rs.truncated_tail ? " (including a truncated tail, likely a torn write)" : "",
                   rs.stale_records);
    }
    if (o_.metrics_dir.empty()) return true;
    std::error_code ec;
    std::filesystem::create_directories(o_.metrics_dir, ec);
    if (ec) {
      std::fprintf(stderr, "pofi_run: cannot create metrics dir %s: %s\n",
                   o_.metrics_dir.c_str(), ec.message().c_str());
      return false;
    }
    spec::Value sidecar = metrics_doc(name, hash);
    sidecar.set("runner", spec::to_json(registry_.snapshot()));
    entries.emplace_back("runner.json", std::move(sidecar));
    bool ok = true;
    for (const auto& [file, v] : entries) {
      ok = write_file(std::filesystem::path(o_.metrics_dir) / file, spec::dump(v)) && ok;
    }
    return ok;
  }

 private:
  const Options& o_;
  std::unique_ptr<runner::ProgressSink> sink_;
  spec::ResumeStats resume_stats_;
  obs::MetricRegistry registry_;
  spec::RunOptions options_;
};

/// The outcome taxonomy entries that are reported as degraded.
bool degraded(runner::CampaignStatus s) {
  return s == runner::CampaignStatus::kFailed || s == runner::CampaignStatus::kQuarantined ||
         s == runner::CampaignStatus::kTimedOut || s == runner::CampaignStatus::kAuditFailed;
}

bool cancelled(const std::vector<runner::CampaignRunner::Outcome>& outcomes) {
  return g_cancel.load() ||
         std::any_of(outcomes.begin(), outcomes.end(), [](const auto& out) {
           return out.status == runner::CampaignStatus::kCancelled;
         });
}

/// The outcome -> exit-code fold of the --help table, in its precedence:
/// cancelled, runtime failure (a fail-fast failure or `io_failed`), audit
/// failure, then quarantined or over budget.
int exit_code(const std::vector<runner::CampaignRunner::Outcome>& outcomes, bool io_failed) {
  if (cancelled(outcomes)) return kExitCancelled;
  const auto any = [&](runner::CampaignStatus s) {
    return std::any_of(outcomes.begin(), outcomes.end(),
                       [s](const auto& out) { return out.status == s; });
  };
  if (io_failed || any(runner::CampaignStatus::kFailed)) return kExitRuntime;
  if (any(runner::CampaignStatus::kAuditFailed)) return kExitAuditFailed;
  if (any(runner::CampaignStatus::kQuarantined) || any(runner::CampaignStatus::kTimedOut)) {
    return kExitDegraded;
  }
  return kExitOk;
}

/// A crash-point sweep (src/torture): the report is the invariant findings
/// and the shrunk repro.
int run_sweep(const spec::Value& doc, const Options& o) {
  const torture::TortureConfig cfg = torture::load_torture(doc);
  if (o.dump_spec) {
    std::printf("%s\n", spec::dump(doc).c_str());
    return kExitOk;
  }

  const std::string hash = spec::hash_string(torture::torture_hash(cfg));
  stats::print_banner("pofi_run torture: " + cfg.name + " | " + hash);

  SharedRun run(o, true);
  const torture::ExploreReport report = torture::explore(cfg, run.options());
  bool io_failed = !run.finish(cfg.name, hash);

  std::printf("schedule: %llu event boundaries | lattice: %llu point(s) planned, "
              "%llu explored, %llu fault(s) injected\n",
              static_cast<unsigned long long>(report.schedule_events),
              static_cast<unsigned long long>(report.points_planned),
              static_cast<unsigned long long>(report.points_explored),
              static_cast<unsigned long long>(report.points_injected));

  for (const auto& out : report.outcomes) {
    if (degraded(out.status) && out.status != runner::CampaignStatus::kAuditFailed) {
      std::printf("degraded shard: %-12s %s%s%s\n", to_string(out.status), out.label.c_str(),
                  out.error.empty() ? "" : ": ", out.error.c_str());
    }
  }

  if (report.total_violations == 0) {
    std::printf("invariants: clean — no recovery-invariant violation at any "
                "explored boundary\n");
  } else {
    std::printf("invariants: %llu violation(s) at %zu boundary(ies)\n",
                static_cast<unsigned long long>(report.total_violations),
                report.findings.size());
    const std::size_t shown = std::min<std::size_t>(report.findings.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& f = report.findings[i];
      const auto& v = f.report.violations.front();
      std::printf("  boundary %-8llu %-26s %s\n",
                  static_cast<unsigned long long>(f.boundary), to_string(v.kind),
                  v.detail.c_str());
    }
    if (report.findings.size() > shown) {
      std::printf("  ... %zu more boundary(ies)\n", report.findings.size() - shown);
    }
    if (report.shrunk) {
      if (!o.repro_out.empty()) {
        io_failed = !write_file(o.repro_out, spec::dump(report.repro)) || io_failed;
      }
      std::printf("repro: shrunk to %llu request(s) + boundary %llu%s%s\n",
                  static_cast<unsigned long long>(report.repro_requests),
                  static_cast<unsigned long long>(report.repro_boundary),
                  o.repro_out.empty() ? "" : " -> ", o.repro_out.c_str());
    }
  }
  std::printf("provenance: %s | %s\n", hash.c_str(), spec::pofi_version());
  return exit_code(report.outcomes, io_failed);
}

/// A campaign: one summary row per entry (or the full report for a single
/// entry), optionally exported as CSV.
int run_campaign(const spec::Value& doc, const Options& o) {
  spec::CampaignSpec campaign = spec::load_campaign(doc);
  if (o.dump_spec) {
    std::printf("%s\n", spec::dump(doc).c_str());
    return kExitOk;
  }

  const std::string hash = spec::hash_string(campaign.hash);
  stats::print_banner("pofi_run: " + campaign.name + " | " +
                      std::to_string(campaign.entries.size()) + " campaign(s) | " + hash);

  // --metrics collects per-entry telemetry; campaign rows stay bit-identical
  // either way, only ExperimentResult::metrics fills in.
  if (!o.metrics_dir.empty()) {
    for (spec::CampaignEntry& entry : campaign.entries) entry.platform.metrics = true;
  }
  SharedRun run(o, campaign.entries.size() > 1);
  const auto outcomes = spec::run_campaign(campaign, run.options());

  // One telemetry file per successful entry, stamped with the entry index,
  // label and resolved seed — enough to join it back to its campaign row.
  std::vector<MetricsFile> entry_files;
  std::vector<spec::CampaignRow> rows;
  std::vector<const runner::CampaignRunner::Outcome*> degraded_outcomes;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (degraded(out.status)) degraded_outcomes.push_back(&out);
    if (!runner::is_success(out.status)) continue;
    rows.push_back({out.label, out.result, out.status});
    if (o.metrics_dir.empty()) continue;
    spec::Value v = metrics_doc(campaign.name, hash);
    v.set("entry", static_cast<std::uint64_t>(i));
    v.set("label", out.label);
    v.set("seed", campaign.entries[i].experiment.seed);
    v.set("status", runner::to_string(out.status));
    v.set("metrics", spec::to_json(out.result.metrics));
    char name[32];
    std::snprintf(name, sizeof name, "entry-%04zu.json", i);
    entry_files.emplace_back(name, std::move(v));
  }
  bool io_failed = !run.finish(campaign.name, hash, std::move(entry_files));
  if (!o.csv_path.empty() && !spec::summary_csv(rows, campaign).write_file(o.csv_path)) {
    std::fprintf(stderr, "pofi_run: failed writing %s\n", o.csv_path.c_str());
    io_failed = true;
  }

  const bool was_cancelled = cancelled(outcomes);
  if (rows.size() == 1 && outcomes.size() == 1 && degraded_outcomes.empty() &&
      !was_cancelled) {
    platform::ReportOptions ro;
    ro.spec_hash = hash;
    ro.version = spec::pofi_version();
    std::fputs(platform::format_report(rows.front().result, ro).c_str(), stdout);
    return exit_code(outcomes, io_failed);
  }

  std::printf("%zu/%zu campaigns completed, %u worker threads%s\n\n", rows.size(),
              outcomes.size(), runner::resolved_threads(campaign.runner),
              was_cancelled ? "  [cancelled]" : "");
  std::fputs(spec::summary_table(rows).c_str(), stdout);
  std::uint64_t total_loss = 0;
  std::uint32_t total_faults = 0;
  for (const auto& row : rows) {
    total_loss += row.result.total_data_loss();
    total_faults += row.result.faults_injected;
  }
  std::printf("\ntotal: %llu acknowledged writes lost over %u faults (%.2f/fault)\n",
              static_cast<unsigned long long>(total_loss), total_faults,
              total_faults > 0 ? static_cast<double>(total_loss) / total_faults : 0.0);

  if (!degraded_outcomes.empty()) {
    std::printf("\ndegraded campaigns:\n");
    for (const auto* out : degraded_outcomes) {
      std::printf("  %-12s %s%s%s\n", to_string(out->status), out->label.c_str(),
                  out->error.empty() ? "" : ": ", out->error.c_str());
    }
  }
  if (was_cancelled) {
    std::printf("\ncancelled: suite stopped by signal; %s\n",
                o.checkpoint_path.empty()
                    ? "no checkpoint (finished rows are lost)"
                    : ("finished rows checkpointed in " + o.checkpoint_path +
                       " (rerun with --resume)")
                          .c_str());
  }
  std::printf("provenance: %s | %s\n", hash.c_str(), spec::pofi_version());
  return exit_code(outcomes, io_failed);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    spec::Value doc = spec::parse_file(o.spec_path);
    // The file picks the kind before any override applies, so a --set that
    // names the other kind's keys is a spec error quoting that --set.
    const bool sweep = doc.find("torture") != nullptr;
    if (sweep && !o.csv_path.empty()) {
      usage_error("--csv applies to campaigns, not crash sweeps");
    }
    if (!sweep && !o.repro_out.empty()) {
      usage_error("--repro-out applies to crash sweeps (a spec with a \"torture\" section)");
    }
    apply_overrides(doc, o);
    return sweep ? run_sweep(doc, o) : run_campaign(doc, o);
  } catch (const spec::Error& e) {
    if (const std::string* kv = override_of(e, o)) {
      std::fprintf(stderr, "pofi_run: spec error: --set %s: %s\n", kv->c_str(), e.what());
    } else {
      std::fprintf(stderr, "pofi_run: spec error: %s\n", e.what());
    }
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pofi_run: %s\n", e.what());
    return kExitRuntime;
  }
}
