// perfbench_driver: one run of one end-to-end benchmark workload.
//
// Campaign workloads go through the entry points pofi_run uses
// (spec::load_campaign_file + spec::run_campaign); the crash sweep goes
// through torture::load_torture + torture::explore. Everything runs on one
// runner worker (the calling thread) and repeats for a fixed host-time
// budget. The driver prints its raw measurements as one JSON document on
// stdout; perfbench/run.py turns them into metrics and checks the rows.
//
//   perfbench_driver --specs specs --workload large_write --seed 1 \
//                    --seconds 10 --trace 0
//
// Every run times the set-up, runs one instrumented iteration at the default
// seed whose rows run.py compares with perfbench/expected.json, and then
// repeats plain iterations, each at its own seed derived from the run's
// seed, during which a SIGALRM timer samples the machine's speed.
// --trace 1 follows each of them with an instrumented iteration at the same
// seed, which times the public calls (session acquire,
// TestPlatform::run, pilot, crash points), collect obs snapshots, and sample
// the program counter with a SIGPROF timer that records only inside
// TestPlatform::run and the crash harness calls.
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/experiment_session.hpp"
#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/value.hpp"
#include "torture/explorer.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"

using namespace pofi;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The workload seed under which every entry keeps the seed its committed
/// spec pins. Any other seed re-derives entry i's seed as derive_seed(seed, i).
/// Must match DEFAULT_SEED in run.py.
constexpr std::uint64_t kDefaultSeed = 1;

/// Set-up repetitions before each measured iteration; run.py reports the
/// median over the run, corrected by the probes like the iterations.
constexpr int kSetupRepsPerIteration = 5;

/// The seed of measured iteration `i` of a run. Every iteration simulates
/// other inputs, so the median over a run is taken over a dozen or more
/// seeds: how much work one seed happens to make (the random length of
/// fault cycles, of a crash sweep's schedule) then barely moves it, where
/// with one seed per run it moved the whole run.
[[nodiscard]] std::uint64_t iteration_seed(std::uint64_t run_seed, std::uint64_t i) {
  return sim::derive_seed(run_seed, i);
}

// --- Program-counter sampler ------------------------------------------------

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_sample_count{0};
std::atomic<bool> g_sampling{false};

extern "C" void on_sigprof(int, siginfo_t*, void* context) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;  // unknown ISA: every sample rolls up to "other"
#endif
  const std::size_t i = g_sample_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = pc;
    g_sample_count.store(i + 1, std::memory_order_relaxed);
  }
}

}  // namespace

/// Reference symbol: run.py subtracts its link-time address (from nm) from
/// the runtime address printed here to undo address-space randomisation.
extern "C" __attribute__((noinline, used)) void perfbench_anchor() {}

namespace {

/// Arms a 1 ms ITIMER_PROF for its lifetime. Samples are kept only while a
/// SampleScope is open.
class Sampler {
 public:
  Sampler() {
    struct sigaction sa {};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, &old_);
    itimerval tv{};
    tv.it_interval.tv_usec = 1000;
    tv.it_value.tv_usec = 1000;
    setitimer(ITIMER_PROF, &tv, nullptr);
  }
  ~Sampler() {
    const itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    sigaction(SIGPROF, &old_, nullptr);
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  struct sigaction old_ {};
};

class SampleScope {
 public:
  explicit SampleScope(bool on) : on_(on) {
    if (on_) g_sampling.store(true, std::memory_order_relaxed);
  }
  ~SampleScope() {
    if (on_) g_sampling.store(false, std::memory_order_relaxed);
  }
  SampleScope(const SampleScope&) = delete;
  SampleScope& operator=(const SampleScope&) = delete;

 private:
  bool on_;
};

// --- Machine-speed probe ----------------------------------------------------

// The machine's speed drifts by tens of percent within seconds with the load
// other tenants put on the shared cores and caches. While a plain iteration
// runs, a 10 ms SIGALRM timer runs one slice of fixed reference work that
// uses no pofi code; the slices sample the speed over the same seconds as the
// work, and run.py divides the iteration's time by their mean. Probes taken
// only before and after an iteration missed slowdowns that came and went
// within it, and a DRAM-latency probe tracked none of them.

constexpr std::size_t kProbeTableWords = std::size_t{1} << 17;  // 1 MiB
std::uint64_t g_probe_table[kProbeTableWords];
std::uint32_t g_probe_sort[1024];
std::uint64_t g_probe_x = 0x9e3779b97f4a7c15ULL;
std::atomic<bool> g_probing{false};
std::atomic<std::uint64_t> g_probe_ns{0};
std::atomic<std::uint64_t> g_probe_slices{0};

/// One slice, about 0.15 ms: a dependent multiply chain, read-modify-writes
/// at pseudo-random slots of a 1 MiB table, and a std::sort of 1 Ki integers.
/// It allocates nothing, so it is safe in a signal handler.
extern "C" void on_sigalrm(int) {
  if (!g_probing.load(std::memory_order_relaxed)) return;
  const auto t0 = Clock::now();
  std::uint64_t x = g_probe_x;
  for (int i = 0; i < 8000; ++i) {
    x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ULL;
    if (x & 1) x += 0x632be59bd9b4e019ULL;
  }
  x |= 1;
  for (int i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = g_probe_table[x & (kProbeTableWords - 1)];
    if (slot & 1) {
      slot += x;
    } else {
      slot ^= x >> 3;
    }
  }
  for (auto& e : g_probe_sort) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<std::uint32_t>(x);
  }
  std::sort(std::begin(g_probe_sort), std::end(g_probe_sort));
  g_probe_x = x + g_probe_sort[7];
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
  g_probe_ns.fetch_add(static_cast<std::uint64_t>(ns.count()), std::memory_order_relaxed);
  g_probe_slices.fetch_add(1, std::memory_order_relaxed);
}

/// Arms the 10 ms ITIMER_REAL for its lifetime. Slices run only while a
/// ProbeWindow is open. The workload runs on this one thread, so the signal
/// lands on it.
class ProbeTimer {
 public:
  ProbeTimer() {
    struct sigaction sa {};
    sa.sa_handler = on_sigalrm;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, &old_);
    itimerval tv{};
    tv.it_interval.tv_usec = 10000;
    tv.it_value.tv_usec = 10000;
    setitimer(ITIMER_REAL, &tv, nullptr);
  }
  ~ProbeTimer() {
    const itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &old_, nullptr);
  }
  ProbeTimer(const ProbeTimer&) = delete;
  ProbeTimer& operator=(const ProbeTimer&) = delete;

 private:
  struct sigaction old_ {};
};

/// Collects the slices that run during one iteration.
class ProbeWindow {
 public:
  ProbeWindow() {
    g_probe_ns.store(0, std::memory_order_relaxed);
    g_probe_slices.store(0, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    g_probing.store(true, std::memory_order_relaxed);
  }
  ~ProbeWindow() { close(); }
  ProbeWindow(const ProbeWindow&) = delete;
  ProbeWindow& operator=(const ProbeWindow&) = delete;

  /// Stops sampling; sets "probe_s" (seconds spent in slices, which are
  /// inside "wall_s") and "probe_slices" on the iteration.
  void close(spec::Value* it = nullptr) {
    g_probing.store(false, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (it == nullptr) return;
    it->set("probe_s", static_cast<double>(g_probe_ns.load(std::memory_order_relaxed)) * 1e-9);
    it->set("probe_slices", g_probe_slices.load(std::memory_order_relaxed));
  }
};

// --- Arguments and workloads ------------------------------------------------

struct Args {
  std::string specs = "specs";
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

enum class Kind { kCampaign, kSweep };

struct Workload {
  const char* name;
  Kind kind;
  const char* spec;
  /// Campaigns run every committed entry with faults and total_requests
  /// divided by this, so requests per fault cycle stay as committed and one
  /// iteration takes 1–1.5 s; a run then holds a dozen or more iterations.
  /// fig8 runs at half size (about 3.5 s): with its 12 faults per entry cut
  /// to 2, the random length of the fault cycles made the work of an
  /// iteration, and so its time, differ by 25% between seeds.
  std::uint32_t scale_down;
};

constexpr Workload kWorkloads[] = {
    {"large_write", Kind::kCampaign, "secIVD_access_pattern.json", 6},
    {"iops_sweep", Kind::kCampaign, "fig8_iops.json", 2},
    {"read_write_mix", Kind::kCampaign, "fig5_request_type.json", 5},
    {"crash_sweep", Kind::kSweep, "torture_smoke.json", 1},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --specs DIR --workload NAME --seed N "
               "--seconds S --trace 0|1\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (flag == "--specs") a.specs = v;
    else if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::string(v) == "1";
    else usage();
  }
  if (a.workload.empty() || a.seconds <= 0.0) usage();
  return a;
}

/// The committed campaign, scaled down, on one worker, with entry seeds
/// re-derived from `seed` unless it is the default.
spec::CampaignSpec load_campaign(const std::string& path, std::uint64_t seed,
                                 std::uint32_t scale_down) {
  spec::CampaignSpec c = spec::load_campaign_file(path);
  c.runner.threads = 1;
  for (std::size_t i = 0; i < c.entries.size(); ++i) {
    platform::ExperimentSpec& e = c.entries[i].experiment;
    e.faults = std::max(1u, e.faults / scale_down);
    e.total_requests = std::max<std::uint64_t>(1, e.total_requests / scale_down);
    if (seed != kDefaultSeed) e.seed = sim::derive_seed(seed, i);
  }
  return c;
}

/// The committed torture spec widened to a stride-1 lattice over its whole
/// schedule, on one worker.
torture::TortureConfig load_sweep(const std::string& path, std::uint64_t seed) {
  spec::Value doc = spec::parse_file(path);
  doc.set_path("torture.window_first", std::uint64_t{0});
  doc.set_path("torture.window_count", std::uint64_t{0});
  doc.set_path("torture.stride", std::uint64_t{1});
  doc.set_path("runner.threads", std::uint64_t{1});
  torture::TortureConfig cfg = torture::load_torture(doc);
  if (seed != kDefaultSeed) cfg.seed = sim::derive_seed(seed, 0);
  return cfg;
}

// --- Result rows --------------------------------------------------------------

spec::Value campaign_row(const runner::CampaignRunner::Outcome& out) {
  spec::Value row = spec::Value::object();
  row.set("label", out.label);
  row.set("status", runner::to_string(out.status));
  row.set("faults", std::uint64_t{out.result.faults_injected});
  row.set("requests", out.result.requests_submitted);
  row.set("data_failures", out.result.data_failures);
  row.set("fwa_failures", out.result.fwa_failures);
  row.set("io_errors", out.result.io_errors);
  return row;
}

struct SweepTally {
  std::uint64_t schedule_events = 0;
  std::uint64_t planned = 0;
  std::uint64_t explored = 0;
  std::uint64_t injected = 0;
  std::uint64_t violations = 0;
  bool all_ok = true;
};

spec::Value sweep_row(const std::string& name, const SweepTally& t) {
  spec::Value row = spec::Value::object();
  row.set("label", name);
  row.set("status", t.all_ok ? "ok" : "failed");
  row.set("schedule_events", t.schedule_events);
  row.set("points_planned", t.planned);
  row.set("points_explored", t.explored);
  row.set("points_injected", t.injected);
  row.set("violations", t.violations);
  return row;
}

/// Flattened obs snapshot: counters by name, gauges as NAME.high_water,
/// histograms as NAME.total.
spec::Value flat_metrics(const obs::Snapshot& s) {
  spec::Value v = spec::Value::object();
  for (const auto& c : s.counters) v.set(c.name, c.value);
  for (const auto& g : s.gauges) v.set(g.name + ".high_water", g.high_water);
  for (const auto& h : s.histograms) v.set(h.name + ".total", h.total);
  return v;
}

/// Sums the runner's per-worker busy/wait counters into `it`, in seconds.
void add_runner_times(spec::Value& it, const obs::MetricRegistry& reg) {
  double busy_us = 0.0;
  double wait_us = 0.0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name.rfind("runner.worker.", 0) != 0) continue;
    if (c.name.ends_with(".busy_us")) busy_us += static_cast<double>(c.value);
    if (c.name.ends_with(".wait_us")) wait_us += static_cast<double>(c.value);
  }
  it.set("runner_busy_s", busy_us * 1e-6);
  it.set("runner_wait_s", wait_us * 1e-6);
}

// --- Campaign workloads -----------------------------------------------------

/// One plain iteration: exactly what pofi_run does with the spec.
spec::Value plain_campaign(const spec::CampaignSpec& c) {
  const auto t0 = Clock::now();
  const auto outcomes = spec::run_campaign(c);
  const double wall = seconds_since(t0);
  spec::Value rows = spec::Value::array();
  std::uint64_t faults = 0;
  for (const auto& out : outcomes) {
    rows.push_back(campaign_row(out));
    faults += out.result.faults_injected;
  }
  spec::Value it = spec::Value::object();
  it.set("wall_s", wall);
  it.set("faults", faults);
  it.set("rows", std::move(rows));
  return it;
}

/// One instrumented iteration: the pooled path of spec::run_campaign, with
/// spans around ExperimentSession::acquire and TestPlatform::run, the
/// simulator's event count per entry and, when `traced`, obs snapshots and
/// PC samples.
spec::Value instrumented_campaign(const spec::CampaignSpec& c, bool traced) {
  struct EntryTrace {
    double acquire_s = 0.0;
    double run_s = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<EntryTrace> traces(c.entries.size());
  obs::MetricRegistry runner_metrics;
  runner::RunnerConfig rc = c.runner;
  rc.metrics = &runner_metrics;
  runner::CampaignRunner rn(rc);
  runner::ExperimentSession::reset_counters();
  for (std::size_t i = 0; i < c.entries.size(); ++i) {
    rn.add(c.entries[i].label, [&c, &traces, i, traced](runner::SessionSlot& slot) {
      const spec::CampaignEntry& entry = c.entries[i];
      platform::PlatformConfig pc = entry.platform;
      if (traced) pc.metrics = true;
      auto t0 = Clock::now();
      platform::TestPlatform& tp =
          runner::ExperimentSession::acquire(slot, entry.drive, pc, entry.experiment.seed);
      traces[i].acquire_s = seconds_since(t0);
      t0 = Clock::now();
      platform::ExperimentResult result;
      {
        const SampleScope sampling(traced);
        result = tp.run(entry.experiment);
      }
      traces[i].run_s = seconds_since(t0);
      traces[i].events = tp.simulator().events_fired();
      return result;
    });
  }
  const auto t0 = Clock::now();
  const auto outcomes = rn.run();
  const double wall = seconds_since(t0);

  spec::Value rows = spec::Value::array();
  spec::Value entries = spec::Value::array();
  std::uint64_t faults = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    spec::Value row = campaign_row(outcomes[i]);
    row.set("sim_events", traces[i].events);
    rows.push_back(std::move(row));
    faults += outcomes[i].result.faults_injected;
    spec::Value e = spec::Value::object();
    e.set("acquire_s", traces[i].acquire_s);
    e.set("run_s", traces[i].run_s);
    e.set("metrics", flat_metrics(outcomes[i].result.metrics));
    entries.push_back(std::move(e));
  }
  spec::Value it = spec::Value::object();
  it.set("wall_s", wall);
  it.set("faults", faults);
  it.set("rows", std::move(rows));
  it.set("entries", std::move(entries));
  it.set("session_resets", runner::ExperimentSession::reset_count());
  it.set("session_rebuilds", runner::ExperimentSession::rebuild_count());
  add_runner_times(it, runner_metrics);
  return it;
}

/// Set-up as a user pays it: load the spec and build entry 0's device stack.
double setup_campaign(const std::string& path, std::uint64_t seed, std::uint32_t scale_down,
                      double& load_s) {
  const auto t0 = Clock::now();
  const spec::CampaignSpec c = load_campaign(path, seed, scale_down);
  load_s = seconds_since(t0);
  const spec::CampaignEntry& entry = c.entries.front();
  const platform::TestPlatform tp(entry.drive, entry.platform, entry.experiment.seed);
  return seconds_since(t0);
}

// --- Crash sweep ------------------------------------------------------------

/// One plain iteration: torture::explore, as pofi_run --torture runs it.
spec::Value plain_sweep(const torture::TortureConfig& cfg) {
  const auto t0 = Clock::now();
  const torture::ExploreReport report = torture::explore(cfg);
  const double wall = seconds_since(t0);
  SweepTally t;
  t.schedule_events = report.schedule_events;
  t.planned = report.points_planned;
  t.explored = report.points_explored;
  t.injected = report.points_injected;
  t.violations = report.total_violations;
  for (const auto& out : report.outcomes) t.all_ok = t.all_ok && runner::is_success(out.status);
  spec::Value rows = spec::Value::array();
  rows.push_back(sweep_row(cfg.name, t));
  spec::Value it = spec::Value::object();
  it.set("wall_s", wall);
  it.set("faults", t.explored);
  it.set("rows", std::move(rows));
  return it;
}

/// One instrumented iteration: explore()'s snapshot path (pilot, then shards
/// of restored crash points on the runner) with spans around run_pilot,
/// ExperimentSession::acquire_for_restore and run_crash_point_from.
spec::Value instrumented_sweep(const torture::TortureConfig& cfg, bool traced) {
  const auto t_start = Clock::now();
  platform::PlatformConfig pc = cfg.platform;
  if (traced) pc.metrics = true;
  runner::ExperimentSession::reset_counters();

  SweepTally t;
  torture::SchedulePilot pilot;
  double acquire_s = 0.0;
  double pilot_s = 0.0;
  std::uint64_t pilot_events = 0;
  spec::Value pilot_metrics = spec::Value::object();
  {
    runner::SessionSlot slot;
    torture::CrashHarness harness(cfg);
    auto t0 = Clock::now();
    platform::TestPlatform& tp = runner::ExperimentSession::acquire(slot, cfg.drive, pc, cfg.seed);
    acquire_s += seconds_since(t0);
    t0 = Clock::now();
    {
      const SampleScope sampling(traced);
      t.schedule_events = harness.run_pilot(tp, pilot, cfg.snapshot_interval);
    }
    pilot_s = seconds_since(t0);
    pilot_events = tp.simulator().events_fired();
    if (const obs::MetricRegistry* m = tp.simulator().metrics()) {
      pilot_metrics = flat_metrics(m->snapshot());
    }
  }

  // The widened lattice: every boundary from window_first on (stride 1).
  std::vector<std::uint64_t> points;
  for (std::uint64_t k = cfg.window_first; k < t.schedule_events; k += cfg.stride) {
    points.push_back(k);
  }
  t.planned = points.size();
  std::vector<double> point_s(points.size(), 0.0);

  obs::MetricRegistry runner_metrics;
  runner::RunnerConfig rc = cfg.runner;
  rc.metrics = &runner_metrics;
  runner::CampaignRunner rn(rc);
  const std::size_t shards = (points.size() + cfg.shard_points - 1) / cfg.shard_points;
  std::vector<double> shard_acquire_s(shards, 0.0);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t begin = shard * cfg.shard_points;
    const std::size_t end = std::min(points.size(), begin + cfg.shard_points);
    rn.add(cfg.name + "-shard" + std::to_string(shard),
           [&, shard, begin, end](runner::SessionSlot& slot) {
             platform::ExperimentResult res;
             torture::CrashHarness harness(cfg);
             for (std::size_t i = begin; i < end; ++i) {
               const torture::HarnessSnapshot* snap = pilot.nearest_at_or_before(points[i]);
               auto t0 = Clock::now();
               torture::CrashOutcome out;
               if (snap != nullptr) {
                 platform::TestPlatform& tp =
                     runner::ExperimentSession::acquire_for_restore(slot, cfg.drive, pc);
                 shard_acquire_s[shard] += seconds_since(t0);
                 t0 = Clock::now();
                 const SampleScope sampling(traced);
                 out = harness.run_crash_point_from(tp, pilot, *snap, points[i]);
               } else {
                 platform::TestPlatform& tp =
                     runner::ExperimentSession::acquire(slot, cfg.drive, pc, cfg.seed);
                 shard_acquire_s[shard] += seconds_since(t0);
                 t0 = Clock::now();
                 const SampleScope sampling(traced);
                 out = harness.run_crash_point(tp, points[i]);
               }
               point_s[i] = seconds_since(t0);
               if (out.injected) ++res.faults_injected;
               res.audit_violations += out.report.violations.size();
             }
             return res;
           });
  }
  const auto outcomes = rn.run();
  for (std::size_t shard = 0; shard < outcomes.size(); ++shard) {
    const auto& out = outcomes[shard];
    t.all_ok = t.all_ok && runner::is_success(out.status);
    if (runner::is_success(out.status)) {
      const std::size_t begin = shard * cfg.shard_points;
      t.explored += std::min(points.size(), begin + cfg.shard_points) - begin;
    }
    t.injected += out.result.faults_injected;
    t.violations += out.result.audit_violations;
  }
  for (const double s : shard_acquire_s) acquire_s += s;

  spec::Value row = sweep_row(cfg.name, t);
  row.set("sim_events", pilot_events);
  spec::Value rows = spec::Value::array();
  rows.push_back(std::move(row));
  spec::Value points_json = spec::Value::array();
  for (const double s : point_s) points_json.push_back(s);

  spec::Value it = spec::Value::object();
  it.set("wall_s", seconds_since(t_start));
  it.set("faults", t.explored);
  it.set("rows", std::move(rows));
  it.set("acquire_s", acquire_s);
  it.set("pilot_s", pilot_s);
  it.set("snapshots", static_cast<std::uint64_t>(pilot.snapshots.size()));
  it.set("point_s", std::move(points_json));
  it.set("pilot_metrics", std::move(pilot_metrics));
  it.set("session_resets", runner::ExperimentSession::reset_count());
  it.set("session_rebuilds", runner::ExperimentSession::rebuild_count());
  add_runner_times(it, runner_metrics);
  return it;
}

/// Set-up as a user pays it: load the torture spec and build its device stack.
double setup_sweep(const std::string& path, std::uint64_t seed, double& load_s) {
  const auto t0 = Clock::now();
  const torture::TortureConfig cfg = load_sweep(path, seed);
  load_s = seconds_since(t0);
  const platform::TestPlatform tp(cfg.drive, cfg.platform, cfg.seed);
  return seconds_since(t0);
}

// --- Run --------------------------------------------------------------------

spec::Value run(const Args& a, const Workload& w) {
  const std::string path = a.specs + "/" + w.spec;
  const bool campaign = w.kind == Kind::kCampaign;
  spec::Value doc = spec::Value::object();
  doc.set("workload", w.name);
  doc.set("seed", a.seed);

  // Correctness reference at the default seed, on every run; it also warms
  // the allocator and caches before anything is timed.
  doc.set("golden", campaign
                        ? instrumented_campaign(load_campaign(path, kDefaultSeed, w.scale_down), false)
                        : instrumented_sweep(load_sweep(path, kDefaultSeed), false));
  // Peak RSS of the workload at the default seed: the footprint of other
  // seeds differs with the pages their requests touch.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  doc.set("peak_rss_kib", static_cast<std::uint64_t>(ru.ru_maxrss));

  spec::Value plain = spec::Value::array();
  spec::Value traced = spec::Value::array();
  const auto t0 = Clock::now();
  {
    std::optional<Sampler> sampler;
    if (a.trace) sampler.emplace();
    const ProbeTimer probe_timer;
    std::uint64_t i = 0;
    double round_s = 0.0;
    do {
      const auto t_round = Clock::now();
      spec::CampaignSpec c;
      torture::TortureConfig cfg;
      if (campaign) {
        c = load_campaign(path, iteration_seed(a.seed, i), w.scale_down);
      } else {
        cfg = load_sweep(path, iteration_seed(a.seed, i));
      }
      ++i;
      // Set-up repetitions are spread over the run, each next to the
      // iteration whose probe slices correct it.
      spec::Value setup = spec::Value::array();
      spec::Value load = spec::Value::array();
      for (int rep = 0; rep < kSetupRepsPerIteration; ++rep) {
        double load_s = 0.0;
        setup.push_back(campaign ? setup_campaign(path, a.seed, w.scale_down, load_s)
                                 : setup_sweep(path, a.seed, load_s));
        load.push_back(load_s);
      }
      ProbeWindow window;
      spec::Value it = campaign ? plain_campaign(c) : plain_sweep(cfg);
      window.close(&it);
      it.set("setup_s", std::move(setup));
      it.set("load_s", std::move(load));
      plain.push_back(std::move(it));
      if (a.trace) {
        traced.push_back(campaign ? instrumented_campaign(c, true)
                                  : instrumented_sweep(cfg, true));
      }
      round_s = seconds_since(t_round);
      // Start another round only if one as long as the last still ends
      // within the budget, so a run never overshoots it by a round.
    } while (seconds_since(t0) + round_s <= a.seconds);
  }
  doc.set("measured_s", seconds_since(t0));
  doc.set("plain", std::move(plain));
  if (a.trace) {
    doc.set("traced", std::move(traced));
    const std::size_t n = std::min(g_sample_count.load(), kMaxSamples);
    spec::Value pcs = spec::Value::array();
    for (std::size_t i = 0; i < n; ++i) pcs.push_back(static_cast<std::uint64_t>(g_samples[i]));
    doc.set("samples", std::move(pcs));
    doc.set("anchor",
            static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&perfbench_anchor)));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  try {
    std::printf("%s\n", spec::canonical(run(a, *w)).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
