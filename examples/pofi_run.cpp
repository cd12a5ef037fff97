// pofi_run: command-line fault-injection campaigns.
//
// The downstream-user entry point: a campaign is a declarative spec (src/spec,
// see specs/) plus --set overrides, and the paper-style failure report comes
// out — no code required.
//
//   pofi_run --spec specs/quickstart.json
//   pofi_run --spec specs/quickstart.json --set drive.preset=B --set experiment.faults=50
//   pofi_run --spec specs/fig7_request_size.json --set runner.threads=2
//   pofi_run --spec specs/quickstart.json --dump-spec
//   pofi_run --spec specs/fig8_iops.json --csv fig8.csv
//   pofi_run --spec specs/vendor_qualification.json --threads 4 --progress jsonl
//   pofi_run --torture specs/torture_smoke.json
//   pofi_run --help
//
// The spec codec alone validates the campaign's values; --dump-spec prints
// the document after the overrides once it validates, and its canonical
// content hash is stamped into the report for provenance.
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
  kExitAuditFailed = 5, ///< torture exploration found recovery-invariant violations
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
  std::string torture_path;
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
      "usage: pofi_run --spec FILE.json [options]\n"
      "       pofi_run --torture FILE.json [options]\n\n"
      "A campaign is a spec file plus --set overrides; every workload, drive\n"
      "and platform parameter is a spec key (see specs/ and EXPERIMENTS.md).\n\n"
      "  --spec FILE.json     run a declarative campaign spec (see specs/)\n"
      "  --torture FILE.json  systematic crash-point exploration: inject a power\n"
      "                       fault at every event boundary of the spec's window,\n"
      "                       audit recovery invariants after each remount, and\n"
      "                       shrink any violation into a minimal repro spec\n"
      "  --repro-out FILE     where --torture writes the shrunk repro spec\n"
      "  --dump-spec          validate the spec with its overrides applied, print\n"
      "                       it as JSON and exit\n"
      "  --set PATH=VALUE     override a spec key (dotted path, JSON value;\n"
      "                       e.g. --set experiment.faults=50); repeatable. An\n"
      "                       invalid value exits 2 naming its --set argument\n"
      "  --threads N          runner worker threads; 0 = hardware (default 0;\n"
      "                       same as --set runner.threads=N)\n"
      "  --progress console|jsonl|off   progress reporting (default console)\n"
      "  --checkpoint FILE    append each finished campaign to a durable JSONL\n"
      "                       checkpoint (crash-safe; see --resume)\n"
      "  --resume             skip campaigns already recorded in --checkpoint\n"
      "                       FILE; merged results are bit-identical to an\n"
      "                       uninterrupted run of the same spec\n"
      "  --metrics DIR        collect per-experiment telemetry (src/obs) and\n"
      "                       export one JSON file per entry into DIR, plus a\n"
      "                       runner.json worker-utilization sidecar; each file\n"
      "                       is stamped with the spec content hash\n"
      "  --csv FILE           write the summary columns to FILE as CSV, one row\n"
      "                       per campaign at full precision, stamped with the\n"
      "                       spec content hash, build and entry outcome counts\n"
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
      "  5  torture exploration found recovery-invariant violations\n");
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
    else if (a == "--torture") o.torture_path = value();
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
  if (o.spec_path.empty() && o.torture_path.empty()) {
    usage_error("no campaign given: pass --spec FILE or --torture FILE");
  }
  if (!o.torture_path.empty() && !o.spec_path.empty()) {
    usage_error("--torture and --spec are mutually exclusive");
  }
  if (o.resume && o.checkpoint_path.empty()) {
    usage_error("--resume requires --checkpoint FILE");
  }
  if (!o.csv_path.empty() && !o.torture_path.empty()) {
    usage_error("--csv applies to campaigns, not --torture");
  }
  if (!o.repro_out.empty() && o.torture_path.empty()) {
    usage_error("--repro-out requires --torture FILE");
  }
  return o;
}

/// Surface what a --resume splice silently tolerated: torn/corrupt JSONL
/// lines and records that no longer match the spec must not masquerade as a
/// clean resume.
void print_resume_warnings(const spec::ResumeStats& rs, const std::string& path) {
  if (rs.malformed_lines == 0 && rs.stale_records == 0) return;
  std::fprintf(stderr,
               "pofi_run: warning: resume from %s reused %zu record(s) but dropped "
               "%zu unparseable line(s)%s and %zu stale record(s); dropped entries re-ran\n",
               path.c_str(), rs.records_reused, rs.malformed_lines,
               rs.truncated_tail ? " (including a truncated tail, likely a torn write)" : "",
               rs.stale_records);
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

/// --metrics DIR: one JSON telemetry file per successful entry, stamped with
/// the campaign name, spec content hash, build version, entry index, label
/// and resolved seed — enough to join any metrics file back to its exact
/// campaign row. A runner.json sidecar carries worker-utilization counters.
bool export_metrics_dir(const std::string& dir, const spec::CampaignSpec& campaign,
                        const std::string& hash,
                        const std::vector<runner::CampaignRunner::Outcome>& outcomes,
                        obs::MetricRegistry& runner_registry) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "pofi_run: cannot create metrics dir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  const auto write_file = [&](const std::string& name, const spec::Value& v) {
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << spec::dump(v) << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "pofi_run: failed writing %s\n", path.string().c_str());
      return false;
    }
    return true;
  };
  bool ok = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (!runner::is_success(out.status)) continue;
    spec::Value v = spec::Value::object();
    v.set("campaign", campaign.name);
    v.set("spec", hash);
    v.set("version", spec::pofi_version());
    v.set("entry", static_cast<std::uint64_t>(i));
    v.set("label", out.label);
    v.set("seed", campaign.entries[i].experiment.seed);
    v.set("status", runner::to_string(out.status));
    v.set("metrics", spec::to_json(out.result.metrics));
    char name[32];
    std::snprintf(name, sizeof name, "entry-%04zu.json", i);
    ok = write_file(name, v) && ok;
  }
  spec::Value sidecar = spec::Value::object();
  sidecar.set("campaign", campaign.name);
  sidecar.set("spec", hash);
  sidecar.set("version", spec::pofi_version());
  sidecar.set("runner", spec::to_json(runner_registry.snapshot()));
  ok = write_file("runner.json", sidecar) && ok;
  return ok;
}

/// --torture FILE: systematic crash-point exploration (src/torture). Shares
/// the campaign path's override, progress, checkpoint/resume and cancel
/// machinery; differs in the report (invariant findings + shrunk repro) and
/// the exit-code mapping (violations -> 5).
int run_torture(const Options& o) {
  spec::Value doc = spec::parse_file(o.torture_path);
  apply_overrides(doc, o);
  const torture::TortureConfig cfg = torture::load_torture(doc);
  if (o.dump_spec) {
    std::printf("%s\n", spec::dump(doc).c_str());
    return kExitOk;
  }

  const std::string hash = spec::hash_string(torture::torture_hash(cfg));
  stats::print_banner("pofi_run torture: " + cfg.name + " | " + hash);

  std::unique_ptr<runner::ProgressSink> sink;
  if (o.progress == "console") {
    sink = std::make_unique<runner::ConsoleProgress>(stderr);
  } else if (o.progress == "jsonl") {
    sink = std::make_unique<runner::JsonlProgress>(std::cout);
  }

  torture::ExploreOptions topt;
  topt.sink = sink.get();
  topt.checkpoint_path = o.checkpoint_path;
  topt.resume = o.resume;
  topt.cancel = &g_cancel;
  topt.repro_path = o.repro_out;
  spec::ResumeStats resume_stats;
  topt.resume_stats = &resume_stats;
  obs::MetricRegistry registry;
  if (!o.metrics_dir.empty()) topt.runner_metrics = &registry;

  const torture::ExploreReport report = torture::explore(cfg, topt);
  if (o.resume) print_resume_warnings(resume_stats, o.checkpoint_path);

  std::printf("schedule: %llu event boundaries | lattice: %llu point(s) planned, "
              "%llu explored, %llu fault(s) injected\n",
              static_cast<unsigned long long>(report.schedule_events),
              static_cast<unsigned long long>(report.points_planned),
              static_cast<unsigned long long>(report.points_explored),
              static_cast<unsigned long long>(report.points_injected));

  bool cancelled = g_cancel.load();
  bool any_degraded = false;
  for (const auto& out : report.outcomes) {
    switch (out.status) {
      case runner::CampaignStatus::kCancelled:
        cancelled = true;
        break;
      case runner::CampaignStatus::kFailed:
      case runner::CampaignStatus::kQuarantined:
      case runner::CampaignStatus::kTimedOut:
        any_degraded = true;
        std::printf("degraded shard: %-12s %s%s%s\n", to_string(out.status),
                    out.label.c_str(), out.error.empty() ? "" : ": ", out.error.c_str());
        break;
      default:
        break;
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
      std::printf("repro: shrunk to %llu request(s) + boundary %llu%s%s\n",
                  static_cast<unsigned long long>(report.repro_requests),
                  static_cast<unsigned long long>(report.repro_boundary),
                  o.repro_out.empty() ? "" : " -> ", o.repro_out.c_str());
    }
  }
  std::printf("provenance: %s | %s\n", hash.c_str(), spec::pofi_version());

  if (cancelled) return kExitCancelled;
  if (report.total_violations > 0) return kExitAuditFailed;
  if (any_degraded) return kExitDegraded;
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    if (!o.torture_path.empty()) return run_torture(o);

    spec::Value doc = spec::parse_file(o.spec_path);
    apply_overrides(doc, o);
    const spec::CampaignSpec campaign = spec::load_campaign(doc);
    if (o.dump_spec) {
      std::printf("%s\n", spec::dump(doc).c_str());
      return 0;
    }

    const std::string hash = spec::hash_string(campaign.hash);

    stats::print_banner("pofi_run: " + campaign.name + " | " +
                        std::to_string(campaign.entries.size()) + " campaign(s) | " +
                        hash);

    std::unique_ptr<runner::ProgressSink> sink;
    if (o.progress == "console" && campaign.entries.size() > 1) {
      sink = std::make_unique<runner::ConsoleProgress>(stderr);
    } else if (o.progress == "jsonl") {
      sink = std::make_unique<runner::JsonlProgress>(std::cout);
    }

    spec::RunCampaignOptions run_options;
    run_options.sink = sink.get();
    run_options.checkpoint_path = o.checkpoint_path;
    run_options.resume = o.resume;
    run_options.cancel = &g_cancel;
    spec::ResumeStats resume_stats;
    run_options.resume_stats = &resume_stats;
    obs::MetricRegistry runner_registry;
    if (!o.metrics_dir.empty()) {
      run_options.collect_metrics = true;
      run_options.runner_metrics = &runner_registry;
    }
    const auto outcomes = spec::run_campaign(campaign, run_options);
    if (o.resume) print_resume_warnings(resume_stats, o.checkpoint_path);
    if (!o.metrics_dir.empty()) {
      export_metrics_dir(o.metrics_dir, campaign, hash, outcomes, runner_registry);
    }

    // Fold the outcome taxonomy into rows + exit status. is_success covers
    // ok / timed-out / skipped-cached; everything else either degrades the
    // exit code or (fail-fast, cancel) truncated the suite.
    std::vector<spec::CampaignRow> rows;
    std::vector<const runner::CampaignRunner::Outcome*> degraded;
    bool any_failed = false;
    bool any_quarantined = false;
    bool any_timed_out = false;
    bool any_audit_failed = false;
    bool cancelled = g_cancel.load();
    for (const auto& out : outcomes) {
      switch (out.status) {
        case runner::CampaignStatus::kAuditFailed:
          any_audit_failed = true;
          degraded.push_back(&out);
          break;
        case runner::CampaignStatus::kTimedOut:
          any_timed_out = true;
          degraded.push_back(&out);
          break;
        case runner::CampaignStatus::kQuarantined:
          any_quarantined = true;
          degraded.push_back(&out);
          break;
        case runner::CampaignStatus::kFailed:
          any_failed = true;
          degraded.push_back(&out);
          break;
        case runner::CampaignStatus::kCancelled:
          cancelled = true;
          break;
        default:
          break;
      }
      if (runner::is_success(out.status)) {
        rows.push_back({out.label, out.result, out.status});
      }
    }
    const bool csv_failed =
        !o.csv_path.empty() && !spec::summary_csv(rows, campaign).write_file(o.csv_path);
    if (csv_failed) std::fprintf(stderr, "pofi_run: failed writing %s\n", o.csv_path.c_str());

    if (rows.size() == 1 && outcomes.size() == 1 && degraded.empty() && !cancelled) {
      platform::ReportOptions ro;
      ro.spec_hash = hash;
      ro.version = spec::pofi_version();
      std::fputs(platform::format_report(rows.front().result, ro).c_str(), stdout);
      return csv_failed ? kExitRuntime : kExitOk;
    }

    std::printf("%zu/%zu campaigns completed, %u worker threads%s\n\n", rows.size(),
                outcomes.size(), runner::resolved_threads(campaign.runner),
                cancelled ? "  [cancelled]" : "");
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

    if (!degraded.empty()) {
      std::printf("\ndegraded campaigns:\n");
      for (const auto* out : degraded) {
        std::printf("  %-12s %s%s%s\n", to_string(out->status), out->label.c_str(),
                    out->error.empty() ? "" : ": ", out->error.c_str());
      }
    }
    if (cancelled) {
      std::printf("\ncancelled: suite stopped by signal; %s\n",
                  o.checkpoint_path.empty()
                      ? "no checkpoint (finished rows are lost)"
                      : ("finished rows checkpointed in " + o.checkpoint_path +
                         " (rerun with --resume)")
                            .c_str());
    }
    std::printf("provenance: %s | %s\n", hash.c_str(), spec::pofi_version());

    if (cancelled) return kExitCancelled;
    if (any_failed || csv_failed) return kExitRuntime;
    if (any_audit_failed) return kExitAuditFailed;
    if (any_quarantined || any_timed_out) return kExitDegraded;
    return kExitOk;
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
