#!/usr/bin/env python3
"""Perf-regression gate over BENCH_micro.json.

Reads a freshly generated BENCH_micro.json (produced by the `bench` CMake
target, or by running bench_micro_platform / bench_obs_overhead with
POFI_BENCH_DIR pointing somewhere writable) and fails if any record has
regressed past its floor. End-to-end cost per workload is gated by
perfbench/run.py (BENCHMARK.json), not here.

Floors are deliberately generous relative to the committed numbers —
roughly half the headroom — so the gate catches real regressions (an
accidental O(n) reintroduction, a lost fast path) without flaking on CI-
runner noise. The committed records in the repo root document the numbers
a quiet 2-vCPU box actually produces; the floors below are what we refuse
to ship under.

A BENCH_runner.json sitting next to the micro record is gated too: the
parallel-vs-sequential speedup must clear its floor, but only when the
record says the number means anything (`speedup_meaningful`) — a 2-worker
run on a 1-hardware-thread box timeshares one core and hovers around 1.0x
regardless of code quality, so gating it would only measure the CI runner.

Usage: scripts/bench_gate.py [path/to/BENCH_micro.json]
Exit codes: 0 ok, 1 regression, 2 missing/malformed input.

No third-party dependencies; stdlib json only.
"""

import os.path

import json
import sys

# (record, field, floor, direction) — "min": value must be >= floor,
# "max": value must be <= floor.
GATES = [
    # Metrics-on wall-clock overhead (documented budget 3%; gate at 5%),
    # plus the bench's own verdict against the documented budget — the
    # committed record must say the budget is met, not just scrape the
    # relaxed CI floor.
    ("obs_overhead", "overhead_fraction", 0.05, "max"),
    ("obs_overhead", "within_budget", 1, "min"),
    # Pooled-session reset-in-place vs per-entry construct+destroy of a full
    # TestPlatform (committed ~2.9x).
    ("session_reset", "speedup", 1.8, "min"),
]


# Parallel-runner floor, applied only when the record's own
# `speedup_meaningful` flag is true (threads <= hardware threads).
RUNNER_SPEEDUP_FLOOR = 1.2


def gate_runner(runner_path):
    """Gate BENCH_runner.json if present; returns a list of failure lines."""
    try:
        with open(runner_path, encoding="utf-8") as f:
            rec = json.load(f)
    except OSError:
        print(f"  note runner record absent ({runner_path}); runner gate skipped")
        return []
    except ValueError as err:
        return [f"BENCH_runner.json: malformed ({err})"]

    meaningful = rec.get("speedup_meaningful")
    if meaningful is None:
        # Pre-annotation record: derive the verdict the bench would stamp.
        meaningful = 1 < rec.get("threads", 0) <= rec.get("hardware_threads", 0)
    if not meaningful:
        print(f"  skip runner speedup = {rec.get('speedup')} "
              f"(not meaningful: {rec.get('threads')} threads on "
              f"{rec.get('hardware_threads')} hardware threads)")
        return []
    value = rec.get("speedup")
    if not isinstance(value, (int, float)):
        return [f"runner.speedup: non-numeric value {value!r}"]
    line = f"runner.speedup = {value:.3f} (must be >= {RUNNER_SPEEDUP_FLOOR})"
    if value >= RUNNER_SPEEDUP_FLOOR:
        print(f"  ok   {line}")
        return []
    print(f"  FAIL {line}")
    return [line]


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_micro.json"
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        return 2

    failures = []
    for record, field, floor, direction in GATES:
        rec = root.get(record)
        if not isinstance(rec, dict) or field not in rec:
            failures.append(f"{record}.{field}: MISSING (bench did not run?)")
            continue
        value = rec[field]
        if not isinstance(value, (int, float)):
            failures.append(f"{record}.{field}: non-numeric value {value!r}")
            continue
        ok = value >= floor if direction == "min" else value <= floor
        bound = ">=" if direction == "min" else "<="
        line = f"{record}.{field} = {value:.3f} (must be {bound} {floor})"
        if ok:
            print(f"  ok   {line}")
        else:
            print(f"  FAIL {line}")
            failures.append(line)

    failures += gate_runner(os.path.join(os.path.dirname(path) or ".",
                                         "BENCH_runner.json"))

    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s) in {path}:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"bench_gate: all {len(GATES)} floors hold in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
