#!/usr/bin/env python3
"""End-to-end benchmark of pofi: host time to run a committed campaign or
crash sweep, faults verified per host second, set-up time and peak RSS, plus
a traced run that splits host time across the simulator's layers.

    python3 perfbench/run.py --workload large_write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Builds perfbench/driver.cpp and the pofi libraries into .bench_build/ under
the checkout root, runs the driver for one workload, checks every simulated
row it reports, prints one line per metric (value, unit, sample count) and
then the result as one JSON object on the last line. --workload all runs
every workload in turn. perfbench/README.md documents the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("large_write", "iops_sweep", "read_write_mix", "crash_sweep")
DEFAULT_SEED = 1  # must match kDefaultSeed in driver.cpp
DRIVER_TIMEOUT_S = 170

# Median host seconds of one machine-speed probe slice (on_sigalrm in
# driver.cpp) on the machine the benchmark was defined on (4 vCPU x86-64,
# shared). End-to-end timings are reported at that machine speed: measured
# seconds x REFERENCE_SLICE_S / the mean slice taken during the measurement.
# See README "Noise".
REFERENCE_SLICE_S = 0.000139

# Per-entry obs counters (summed over entries) and high-water gauges (max
# over entries) the traced run reports.
COUNTERS = (
    "ftl.journal.flushes",
    "ftl.journal.entries_persisted",
    "ftl.map.updates_reverted",
    "ssd.cache.dirty_lost",
    "nand.ispp.started",
    "nand.ecc.corrected",
    "nand.ecc.uncorrectable",
    "blk.split.fanout.total",
)
HIGH_WATERS = (
    "ssd.cache.dirty_pages.high_water",
    "ssd.ncq.inflight.high_water",
    "blk.queue.outstanding.high_water",
)

# The layer order a gprof roll-up of the seed state showed: (layer, whether
# it must be the largest share). Reported, not enforced: an optimisation of
# that layer may legitimately change the order.
LAYER_ORDER = {"large_write": ("ftl", True), "iops_sweep": ("ftl", False)}


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        *generator], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench_driver")


def run_driver(binary, workload, seed, seconds, trace):
    cmd = [binary, "--specs", os.path.join(ROOT, "specs"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True,
                         timeout=DRIVER_TIMEOUT_S)
    return json.loads(out.stdout)


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)


def check_rows(raw, expected):
    """(attempted, failed) operations over every iteration of the run. The
    default-seed iteration is compared with the expected rows. Each measured
    iteration runs a seed of its own: its entries must finish ok with the
    faults they plan, its sweep clean with every point explored, and a
    traced iteration must match the plain one of the same seed."""
    planned = benchlib.planned_rows(expected)
    attempted = benchlib.operations(raw["golden"]["rows"])
    failed = benchlib.rows_failed(raw["golden"]["rows"], expected)
    for it in raw["plain"]:
        attempted += benchlib.operations(it["rows"])
        failed += benchlib.rows_failed(it["rows"], planned)
    for it, plain in zip(raw.get("traced", []), raw["plain"]):
        attempted += benchlib.operations(it["rows"])
        failed += benchlib.rows_failed(it["rows"], plain["rows"])
    return attempted, failed


def work_s(it):
    """Host seconds of a plain iteration without the probe slices in it."""
    return it["wall_s"] - it["probe_s"]


def slice_s(it):
    """Mean host seconds of the probe slices taken during a plain iteration."""
    return it["probe_s"] / it["probe_slices"]


def at_reference_speed(seconds, it):
    return seconds * REFERENCE_SLICE_S / slice_s(it)


def end_to_end(raw):
    plain = raw["plain"]
    walls = [at_reference_speed(work_s(it), it) for it in plain]
    rates = [it["faults"] / wall for it, wall in zip(plain, walls)]
    setups = [at_reference_speed(s, it) for it in plain for s in it["setup_s"]]
    return {
        "wall_s": (benchlib.median(walls), "s", len(walls)),
        "faults_per_s": (benchlib.median(rates), "1/s", len(rates)),
        "setup_s": (benchlib.median(setups), "s", len(setups)),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB", 1),
    }


def sampled_layers(raw, binary):
    nm = subprocess.run(["nm", "--defined-only", "-S", binary], stdout=subprocess.PIPE,
                        check=True, text=True).stdout
    symbols = benchlib.read_symbols(nm)
    anchor = next(addr for addr, _, name in symbols if name == "perfbench_anchor")
    return benchlib.roll_up(raw["samples"], symbols, raw["anchor"] - anchor)


def per_layer(raw, binary):
    traced = raw["traced"]
    # Counts come from the first traced iteration, whose seed depends only
    # on the run's seed, not on how many iterations the run held.
    first = traced[0]
    n = len(traced)
    sweep = "pilot_s" in first
    m = {}

    counts = sampled_layers(raw, binary)
    total = sum(counts.values())
    for layer in benchlib.LAYERS + ("other",):
        m[f"{layer}.self_frac"] = (counts[layer] / total if total else 0.0, "fraction", total)

    entry_metrics = [first["pilot_metrics"]] if sweep else [e["metrics"] for e in first["entries"]]
    for name in COUNTERS:
        m[name] = (sum(e.get(name, 0) for e in entry_metrics), "count", n)
    for name in HIGH_WATERS:
        m[name] = (max(e.get(name, 0) for e in entry_metrics), "count", n)

    def ns_per_event(it):
        events = sum(row["sim_events"] for row in it["rows"])
        return (it["pilot_s"] if sweep else it["wall_s"]) / events * 1e9

    m["sim.events"] = (sum(row["sim_events"] for row in first["rows"]), "count", n)
    m["sim.ns_per_event"] = (benchlib.median(ns_per_event(it) for it in traced), "ns", n)

    runs = [] if sweep else [e["run_s"] for it in traced for e in it["entries"]]
    m["platform.run_s.p50"] = (benchlib.median(runs) if runs else 0.0, "s", len(runs))
    m["platform.run_s.max"] = (max(runs) if runs else 0.0, "s", len(runs))

    points = [s for it in traced for s in it["point_s"]] if sweep else []
    m["torture.pilot_s"] = (benchlib.median(it["pilot_s"] for it in traced) if sweep else 0.0,
                            "s", n if sweep else 0)
    m["torture.snapshots"] = (first["snapshots"] if sweep else 0, "count", n if sweep else 0)
    m["torture.crash_point_s.p50"] = (
        benchlib.percentile(points, 50) if points else 0.0, "s", len(points))
    m["torture.crash_point_s.p99"] = (
        benchlib.percentile(points, 99) if points else 0.0, "s", len(points))

    acquire = [it["acquire_s"] if sweep else sum(e["acquire_s"] for e in it["entries"])
               for it in traced]
    loads = [s for it in raw["plain"] for s in it["load_s"]]
    m["spec.load_s"] = (benchlib.median(loads), "s", len(loads))
    m["runner.session.acquire_s"] = (benchlib.median(acquire), "s", n)
    m["runner.session.resets"] = (first["session_resets"], "count", n)
    m["runner.session.rebuilds"] = (first["session_rebuilds"], "count", n)
    m["runner.worker.busy_s"] = (benchlib.median(it["runner_busy_s"] for it in traced), "s", n)
    m["runner.worker.wait_s"] = (benchlib.median(it["runner_wait_s"] for it in traced), "s", n)

    # Each traced iteration against the plain one of the same seed.
    m["trace.overhead_frac"] = (
        benchlib.median(it["wall_s"] / work_s(plain) - 1.0
                        for it, plain in zip(traced, raw["plain"])), "fraction", n)
    plain_wall = benchlib.median(work_s(it) for it in raw["plain"])
    m["host.wall_s"] = (plain_wall, "s", len(raw["plain"]))
    m["host.probe_s"] = (benchlib.median(slice_s(it) for it in raw["plain"]), "s",
                         len(raw["plain"]))
    return m


def layer_order_note(workload, metrics):
    if workload not in LAYER_ORDER:
        return None
    layer, must_lead = LAYER_ORDER[workload]
    largest = max(benchlib.LAYERS, key=lambda l: metrics[f"{l}.self_frac"][0])
    holds = (largest == layer) == must_lead
    want = f"{layer} largest" if must_lead else f"{layer} not largest"
    return (f"layer order on {workload}: largest self_frac is {largest} "
            f"(seed-state gprof roll-up: {want}): {'matches' if holds else 'DIFFERS'}")


def run_one(binary, workload, seed, seconds, trace, write_expected):
    raw = run_driver(binary, workload, seed, seconds, trace)
    expected = load_expected()
    if write_expected:
        if seed != DEFAULT_SEED:
            raise SystemExit("--write-expected needs the default seed")
        expected[workload] = raw["golden"]["rows"]
        with open(EXPECTED, "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    attempted, failed = check_rows(raw, expected.get(workload, []))
    metrics = per_layer(raw, binary) if trace else end_to_end(raw)

    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} operations attempted, "
          f"{failed} failed, measured {raw['measured_s']:.1f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:36} {value:>16.6g} {unit:9} n={n}")
    note = layer_order_note(workload, metrics) if trace else None
    if note:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return failed == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true",
                   help="record this run's default-seed rows in perfbench/expected.json "
                        "(after a deliberate change to simulated output)")
    args = p.parse_args()
    try:
        binary = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for w in workloads:
            ok = run_one(binary, w, args.seed, args.seconds, bool(args.trace),
                         args.write_expected) and ok
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
