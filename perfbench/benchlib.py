"""Helpers for perfbench/run.py: statistics, PC roll-up and row fingerprints.

Kept free of I/O so perfbench/tests/test_benchlib.py can test them directly.
"""

import bisect
import re
from collections import Counter

# Layers whose share of sampled host time the traced run reports, named after
# the pofi::<layer> namespaces under src/. Samples anywhere else (the standard
# library, libc, obs, runner, spec, ...) count as "other".
LAYERS = ("sim", "nand", "ftl", "ssd", "blk", "platform", "psu", "workload", "torture")

# Row fields compared against the reference rows, in fingerprint order.
ROW_FIELDS = (
    "status",
    "faults",
    "requests",
    "data_failures",
    "fwa_failures",
    "io_errors",
    "sim_events",
    "schedule_events",
    "points_planned",
    "points_explored",
    "points_injected",
    "violations",
)


def percentile(values, q):
    """The q-th percentile (0..100) of values, interpolating linearly between
    the two nearest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


# Itanium-mangled names of entities in namespace pofi::<layer>: an optional
# this-adjusting thunk prefix, an optional local-entity "Z" (lambdas and
# statics inside a function), then the nested-name "N" with cv/ref
# qualifiers, "4pofi" and the length-prefixed layer namespace.
_POFI_NAME = re.compile(r"_Z(?:Thn?\d+_|Tvn?\d+_n?\d+_)?Z?N[rVK]*[RO]?4pofi(\d+)")
# The first pofi::<layer> name anywhere in a symbol, e.g. a template argument.
_POFI_ARGUMENT = re.compile(r"N4pofi(\d+)")


def layer_of(symbol):
    """The pofi::<layer> a mangled symbol's host time belongs to, or "other".

    A symbol in namespace pofi::<layer> (lambdas inside its functions too)
    belongs to that layer. Any other symbol that is a template instantiated
    for a pofi type belongs to the layer of the first such type: the
    std::unordered_map probes of ssd::WriteCache count as "ssd"."""
    m = _POFI_NAME.match(symbol) or _POFI_ARGUMENT.search(symbol)
    if not m:
        return "other"
    start = m.end()
    name = symbol[start:start + int(m.group(1))]
    return name if name in LAYERS else "other"


def read_symbols(nm_output):
    """Sorted (address, size, name) of the sized text symbols in the output
    of `nm --defined-only -S`."""
    symbols = []
    for line in nm_output.splitlines():
        parts = line.split()
        if len(parts) != 4 or parts[2] not in ("t", "T", "w", "W"):
            continue
        symbols.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    symbols.sort()
    return symbols


def roll_up(pcs, symbols, bias):
    """Count program-counter samples per layer. `bias` is the runtime load
    address minus the link-time address; a PC outside every symbol (shared
    libraries, PLT stubs) counts as "other"."""
    starts = [s[0] for s in symbols]
    counts = Counter()
    for pc in pcs:
        addr = pc - bias
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < symbols[i][0] + symbols[i][1]:
            counts[layer_of(symbols[i][2])] += 1
        else:
            counts["other"] += 1
    return counts


def row_fingerprint(row, fields=ROW_FIELDS):
    """Canonical one-line form of a result row over `fields` (those present)."""
    return "|".join([str(row.get("label"))] + [f"{k}={row[k]}" for k in fields if k in row])


def operations(rows):
    """Operations a set of rows stands for: one per campaign entry, one per
    planned crash point of a sweep."""
    return sum(max(row.get("points_planned", 1), 1) for row in rows)


def planned_rows(rows):
    """The part of expected rows that holds at every seed: the entry's label,
    an ok status and, for a campaign entry, the faults it plans."""
    return [{k: row[k] for k in ("label", "status", "faults") if k in row} for row in rows]


def rows_failed(rows, reference):
    """Operations that failed in `rows`. A row fails whole when its status is
    not ok or it differs from the reference row at the same index on the
    fields both carry; missing and extra rows fail too. A matching sweep row
    still fails its unexplored and violating crash points."""
    failed = 0
    for i, row in enumerate(rows):
        ref = reference[i] if i < len(reference) else None
        shared = [k for k in ROW_FIELDS if ref is not None and k in row and k in ref]
        if row.get("status") != "ok" or ref is None or (
                row_fingerprint(row, shared) != row_fingerprint(ref, shared)):
            failed += operations([row])
        elif "points_planned" in row:
            missed = row["points_planned"] - row["points_explored"] + row["violations"]
            failed += min(operations([row]), missed)
    return failed + operations(reference[len(rows):])
