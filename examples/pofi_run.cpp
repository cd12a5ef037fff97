// pofi_run: command-line fault-injection campaigns.
//
// The downstream-user entry point: pick a drive, describe a workload, choose
// a fault count, get the paper-style failure report — no code required.
//
//   pofi_run --spec specs/quickstart.json
//   pofi_run --spec specs/fig7_request_size.json --set runner.threads=2
//   pofi_run --spec specs/quickstart.json --dump-spec
//   pofi_run --model A --faults 50 --requests 4000 --read-pct 20
//            --pattern random --wss-gb 8 --seed 42
//   pofi_run --model B --cache off --faults 30
//   pofi_run --model A --units 8 --threads 4 --progress jsonl
//   pofi_run --help
//
// Every invocation — flag-built or file-loaded — goes through the same
// declarative campaign spec (src/spec): flags compile to a JSON document,
// --dump-spec prints it, and the document's canonical content hash is
// stamped into the report for provenance.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/campaign_suite.hpp"
#include "platform/report.hpp"
#include "runner/progress.hpp"
#include "spec/campaign.hpp"
#include "spec/codec.hpp"
#include "spec/obs_json.hpp"
#include "spec/version.hpp"
#include "ssd/presets.hpp"
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
  // Campaign-shaping flags (compiled into a spec document when no --spec).
  ssd::VendorModel model = ssd::VendorModel::kA;
  std::uint32_t faults = 30;
  std::uint64_t requests = 2400;
  int read_pct = 0;
  double wss_gb = 8.0;
  int size_min_kb = 4;
  int size_max_kb = 1024;
  bool sequential = false;
  workload::SequenceMode sequence = workload::SequenceMode::kNone;
  double pace_iops = 5.0;
  double target_iops = 0.0;
  bool cache = true;
  bool plp = false;
  bool por = false;
  std::uint32_t preage = 0;
  std::uint32_t capacity_gb = 16;
  psu::DischargeKind cutoff = psu::DischargeKind::kPowerLaw;
  std::uint64_t seed = 42;
  std::uint32_t units = 1;
  bool units_set = false;
  // Execution / spec-layer flags.
  unsigned threads = 0;
  bool threads_set = false;
  bool no_session_reuse = false;
  std::string progress = "console";
  std::string spec_path;
  std::string torture_path;
  std::string repro_out;
  std::string checkpoint_path;
  std::string metrics_dir;
  bool resume = false;
  bool dump_spec = false;
  std::vector<std::string> sets;  ///< --set key=value overrides, in order
};

[[noreturn]] void usage(int code) {
  std::printf(
      "pofi_run - power-outage fault injection campaigns (DATE'18 reproduction)\n\n"
      "usage: pofi_run [options]\n"
      "  --spec FILE.json     run a declarative campaign spec (see specs/)\n"
      "  --torture FILE.json  systematic crash-point exploration: inject a power\n"
      "                       fault at every event boundary of the spec's window,\n"
      "                       audit recovery invariants after each remount, and\n"
      "                       shrink any violation into a minimal repro spec\n"
      "  --repro-out FILE     where --torture writes the shrunk repro spec\n"
      "  --dump-spec          print the campaign as JSON and exit (round-trips\n"
      "                       both --spec files and flag-built campaigns)\n"
      "  --set PATH=VALUE     override a spec key (dotted path, JSON value;\n"
      "                       e.g. --set experiment.faults=50); repeatable\n"
      "  --model A|B|C        Table I drive preset (default A)\n"
      "  --faults N           power faults to inject (default 30)\n"
      "  --requests N         total request budget (default 2400)\n"
      "  --read-pct P         read percentage 0..100 (default 0)\n"
      "  --wss-gb G           working set size in GiB (default 8)\n"
      "  --size-min-kb K      min request size (default 4)\n"
      "  --size-max-kb K      max request size (default 1024)\n"
      "  --pattern random|sequential   access pattern (default random)\n"
      "  --sequence none|rar|raw|war|waw  dependent-pair mode (default none)\n"
      "  --pace IOPS          request pacing (default 5)\n"
      "  --iops IOPS          open-loop target rate (overrides --pace)\n"
      "  --cache on|off       internal DRAM write cache (default on)\n"
      "  --plp                supercap power-loss protection\n"
      "  --por                power-on-recovery OOB scan\n"
      "  --preage N           initial P/E cycles on every block\n"
      "  --capacity-gb G      scale the drive (default 16)\n"
      "  --cutoff power-law|exponential|instant   rail model (default power-law)\n"
      "  --seed N             campaign seed (default 42)\n"
      "  --units N            independent campaign copies, sharded seeds (default 1)\n"
      "  --threads N          runner worker threads; 0 = hardware (default 0)\n"
      "  --no-session-reuse   rebuild the device stack for every entry instead\n"
      "                       of pooling one per worker (A/B baseline; results\n"
      "                       are bit-identical either way)\n"
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
      "  --version            print the build-provenance stamp and exit\n"
      "  --help               this text\n"
      "\n"
      "resilience (spec \"runner\" section, or --set runner.KEY=VALUE):\n"
      "  retry_limit N            retries per campaign before quarantine (default 0)\n"
      "  retry_backoff_ms MS      exponential backoff base; deterministic jitter\n"
      "  campaign_timeout_seconds S   per-campaign wall-clock budget\n"
      "  (platform.max_sim_events caps simulator events per campaign)\n"
      "\n"
      "exit status:\n"
      "  0  every campaign completed successfully\n"
      "  1  runtime failure (fail-fast campaign failure, IO error)\n"
      "  2  invalid usage or campaign spec\n"
      "  3  quarantined and/or over-budget campaigns (suite still completed)\n"
      "  4  cancelled by SIGINT/SIGTERM (checkpointed rows were kept)\n"
      "  5  torture exploration found recovery-invariant violations\n");
  std::exit(code);
}

const char* next_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    usage(2);
  }
  return argv[++i];
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--version") {
      // The provenance stamp written into reports/CSV/metrics artifacts,
      // plus enough build detail to reproduce the binary.
      std::printf("%s\n", spec::pofi_version());
#if defined(__VERSION__)
      std::printf("compiler: %s\n", __VERSION__);
#endif
      std::printf("observability: %s\n", POFI_OBS_ENABLED ? "compiled in" : "compiled out");
      std::exit(0);
    }
    else if (a == "--spec") o.spec_path = next_arg(argc, argv, i);
    else if (a == "--torture") o.torture_path = next_arg(argc, argv, i);
    else if (a == "--repro-out") o.repro_out = next_arg(argc, argv, i);
    else if (a == "--metrics") o.metrics_dir = next_arg(argc, argv, i);
    else if (a == "--checkpoint") o.checkpoint_path = next_arg(argc, argv, i);
    else if (a == "--resume") o.resume = true;
    else if (a == "--dump-spec") o.dump_spec = true;
    else if (a == "--set") o.sets.emplace_back(next_arg(argc, argv, i));
    else if (a == "--model") {
      const std::string v = next_arg(argc, argv, i);
      if (v == "A") o.model = ssd::VendorModel::kA;
      else if (v == "B") o.model = ssd::VendorModel::kB;
      else if (v == "C") o.model = ssd::VendorModel::kC;
      else usage(2);
    } else if (a == "--faults") o.faults = static_cast<std::uint32_t>(std::atoi(next_arg(argc, argv, i)));
    else if (a == "--requests") o.requests = static_cast<std::uint64_t>(std::atoll(next_arg(argc, argv, i)));
    else if (a == "--read-pct") o.read_pct = std::atoi(next_arg(argc, argv, i));
    else if (a == "--wss-gb") o.wss_gb = std::atof(next_arg(argc, argv, i));
    else if (a == "--size-min-kb") o.size_min_kb = std::atoi(next_arg(argc, argv, i));
    else if (a == "--size-max-kb") o.size_max_kb = std::atoi(next_arg(argc, argv, i));
    else if (a == "--pattern") o.sequential = std::string(next_arg(argc, argv, i)) == "sequential";
    else if (a == "--sequence") {
      const std::string v = next_arg(argc, argv, i);
      if (v == "none") o.sequence = workload::SequenceMode::kNone;
      else if (v == "rar") o.sequence = workload::SequenceMode::kRAR;
      else if (v == "raw") o.sequence = workload::SequenceMode::kRAW;
      else if (v == "war") o.sequence = workload::SequenceMode::kWAR;
      else if (v == "waw") o.sequence = workload::SequenceMode::kWAW;
      else usage(2);
    } else if (a == "--pace") o.pace_iops = std::atof(next_arg(argc, argv, i));
    else if (a == "--iops") o.target_iops = std::atof(next_arg(argc, argv, i));
    else if (a == "--cache") o.cache = std::string(next_arg(argc, argv, i)) != "off";
    else if (a == "--plp") o.plp = true;
    else if (a == "--por") o.por = true;
    else if (a == "--preage") o.preage = static_cast<std::uint32_t>(std::atoi(next_arg(argc, argv, i)));
    else if (a == "--capacity-gb") o.capacity_gb = static_cast<std::uint32_t>(std::atoi(next_arg(argc, argv, i)));
    else if (a == "--cutoff") {
      const std::string v = next_arg(argc, argv, i);
      if (v == "power-law") o.cutoff = psu::DischargeKind::kPowerLaw;
      else if (v == "exponential") o.cutoff = psu::DischargeKind::kExponential;
      else if (v == "instant") o.cutoff = psu::DischargeKind::kInstant;
      else usage(2);
    } else if (a == "--seed") o.seed = static_cast<std::uint64_t>(std::atoll(next_arg(argc, argv, i)));
    else if (a == "--units") {
      o.units = static_cast<std::uint32_t>(std::atoi(next_arg(argc, argv, i)));
      o.units_set = true;
    }
    else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::atoi(next_arg(argc, argv, i)));
      o.threads_set = true;
    } else if (a == "--no-session-reuse") {
      o.no_session_reuse = true;
    } else if (a == "--progress") {
      o.progress = next_arg(argc, argv, i);
      if (o.progress != "console" && o.progress != "jsonl" && o.progress != "off") usage(2);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage(2);
    }
  }
  if (o.read_pct < 0 || o.read_pct > 100 || o.size_min_kb < 4 ||
      o.size_max_kb < o.size_min_kb || o.faults == 0 || o.units == 0) {
    usage(2);
  }
  if (o.resume && o.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    usage(2);
  }
  if (!o.torture_path.empty() && !o.spec_path.empty()) {
    std::fprintf(stderr, "--torture and --spec are mutually exclusive\n");
    usage(2);
  }
  if (!o.repro_out.empty() && o.torture_path.empty()) {
    std::fprintf(stderr, "--repro-out requires --torture FILE\n");
    usage(2);
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

/// Compile the command-line flags into the equivalent campaign document —
/// the same IR a specs/*.json file parses to.
spec::Value build_doc(const Options& o) {
  // The preset is materialised once here purely to learn the page size the
  // GiB/KiB flags scale against.
  ssd::PresetOptions preset;
  preset.capacity_override_gb = o.capacity_gb;
  const std::uint32_t page =
      ssd::make_preset(o.model, preset).chip.geometry.page_size_bytes;

  spec::Value drive = spec::Value::object();
  drive.set("preset", to_string(o.model));
  drive.set("cache_enabled", o.cache);
  drive.set("plp", o.plp);
  drive.set("por_scan", o.por);
  if (o.preage != 0) drive.set("preage_pe_cycles", std::uint64_t{o.preage});
  drive.set("capacity_gb", std::uint64_t{o.capacity_gb});

  spec::Value wl = spec::Value::object();
  wl.set("name", "pofi_run");
  wl.set("wss_pages", static_cast<std::uint64_t>(o.wss_gb * (1ULL << 30)) / page);
  const std::uint32_t min_pages =
      std::max(1u, static_cast<std::uint32_t>(o.size_min_kb) * 1024 / page);
  wl.set("min_pages", std::uint64_t{min_pages});
  wl.set("max_pages",
         std::uint64_t{std::max(min_pages,
                                static_cast<std::uint32_t>(o.size_max_kb) * 1024 / page)});
  wl.set("write_fraction", 1.0 - o.read_pct / 100.0);
  wl.set("pattern", o.sequential ? "sequential" : "random");
  wl.set("sequence", to_string(o.sequence));
  if (o.target_iops > 0.0) wl.set("target_iops", o.target_iops);

  spec::Value experiment = spec::Value::object();
  experiment.set("name", std::string("pofi_run-") + to_string(o.model));
  experiment.set("workload", std::move(wl));
  experiment.set("total_requests", o.requests);
  experiment.set("faults", std::uint64_t{o.faults});
  experiment.set("pace_iops", o.pace_iops);
  // Single campaign: pin the seed (historic behaviour). Fleets leave the
  // per-entry seed derived from the master so units stay independent.
  if (o.units == 1) experiment.set("seed", o.seed);

  spec::Value platform = spec::Value::object();
  platform.set("discharge", to_string(o.cutoff));

  spec::Value doc = spec::Value::object();
  doc.set("name", "pofi_run");
  doc.set("seed", o.seed);
  if (o.units > 1) doc.set("units", std::uint64_t{o.units});
  doc.set("platform", std::move(platform));
  doc.set("drive", std::move(drive));
  doc.set("experiment", std::move(experiment));
  return doc;
}

/// --set PATH=VALUE: VALUE parses as JSON when it can (numbers, booleans,
/// arrays), otherwise it is taken as a bare string ("--set drive.preset=B").
void apply_set(spec::Value& doc, const std::string& kv) {
  const auto eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) {
    std::fprintf(stderr, "--set expects PATH=VALUE, got \"%s\"\n", kv.c_str());
    std::exit(2);
  }
  const std::string path = kv.substr(0, eq);
  const std::string raw = kv.substr(eq + 1);
  spec::Value value;
  try {
    value = spec::parse(raw);
  } catch (const spec::Error&) {
    value = spec::Value(raw);
  }
  doc.set_path(path, std::move(value));
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
  if (o.threads_set) doc.set_path("runner.threads", std::uint64_t{o.threads});
  for (const auto& kv : o.sets) apply_set(doc, kv);
  if (o.dump_spec) {
    std::printf("%s\n", spec::dump(doc).c_str());
    return kExitOk;
  }

  const torture::TortureConfig cfg = torture::load_torture(doc);
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

    spec::Value doc =
        o.spec_path.empty() ? build_doc(o) : spec::parse_file(o.spec_path);
    if (o.threads_set) doc.set_path("runner.threads", std::uint64_t{o.threads});
    if (o.no_session_reuse) doc.set_path("runner.session_reuse", false);
    // --units overrides spec files too (build_doc already folded it in for
    // flag-built docs); a spec with a pinned seed then fails load_campaign
    // loudly instead of the flag being ignored.
    if (o.units_set && !o.spec_path.empty()) {
      doc.set_path("units", std::uint64_t{o.units});
    }
    for (const auto& kv : o.sets) apply_set(doc, kv);

    if (o.dump_spec) {
      std::printf("%s\n", spec::dump(doc).c_str());
      return 0;
    }

    const spec::CampaignSpec campaign = spec::load_campaign(doc);
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
      if (!POFI_OBS_ENABLED) {
        std::fprintf(stderr,
                     "pofi_run: warning: observability compiled out (POFI_OBS=OFF); "
                     "--metrics will export empty per-entry snapshots\n");
      }
      run_options.collect_metrics = true;
      run_options.runner_metrics = &runner_registry;
    }
    const auto outcomes = spec::run_campaign(campaign, run_options);
    if (o.resume) print_resume_warnings(resume_stats, o.checkpoint_path);
    if (!o.metrics_dir.empty()) {
      export_metrics_dir(o.metrics_dir, campaign, hash, outcomes, runner_registry);
    }

    // Fold the outcome taxonomy into rows + exit status. is_success covers
    // ok / retried-ok / timed-out / skipped-cached; everything else either
    // degrades the exit code or (fail-fast, cancel) truncated the suite.
    std::vector<platform::CampaignSuite::Row> rows;
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
        rows.push_back({out.label, out.result});
      }
    }

    if (rows.size() == 1 && outcomes.size() == 1 && degraded.empty() && !cancelled) {
      platform::ReportOptions ro;
      ro.spec_hash = hash;
      ro.version = spec::pofi_version();
      std::fputs(platform::format_report(rows.front().result, ro).c_str(), stdout);
      return kExitOk;
    }

    std::printf("%zu/%zu campaigns completed, %u worker threads%s\n\n", rows.size(),
                outcomes.size(), runner::resolved_threads(campaign.runner),
                cancelled ? "  [cancelled]" : "");
    std::fputs(platform::CampaignSuite::summary_table(rows).c_str(), stdout);
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
        std::printf("  %-12s %s (%u attempt%s)%s%s\n", to_string(out->status),
                    out->label.c_str(), out->attempts, out->attempts == 1 ? "" : "s",
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
    if (any_failed) return kExitRuntime;
    if (any_audit_failed) return kExitAuditFailed;
    if (any_quarantined || any_timed_out) return kExitDegraded;
    return kExitOk;
  } catch (const spec::Error& e) {
    std::fprintf(stderr, "pofi_run: spec error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pofi_run: %s\n", e.what());
    return kExitRuntime;
  }
}
