#!/usr/bin/env python3
"""Compare two perf_smoke JSON trajectory points and flag regressions.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.15]
                         [--across-configs]

Both files are BENCH_perf.json outputs (see bench/perf_smoke.cc). Each
carries a "build" stamp: build type, invariant checker, tracer and
scheduler backend, plus the git revision. Files whose stamps differ in
anything but the revision measure different programs, so the script
refuses to compare them and exits 2; --across-configs compares them
anyway, for a deliberate contrast such as the wheel vs heap backends.
The revision is recorded for the reader and never compared.

The comparison walks every numeric leaf shared by both files and infers
the "good" direction from the metric name:

  higher is better   *PerSec, *speedup*, *_per_wall_sec*
  lower is better    nsPer*, *wallSec*, *WallSec*, events_per_packet,
                     *_p99_us-style simulated latency percentiles
  informational      ops, configs, jobs, hw_threads, deterministic,
                     packets, events, cores, rx_queues, flows,
                     link_pcie_ns, link_mesh_ns, micro_reps,
                     reallocations — never compared

A higher-is-better metric that dropped by more than --tolerance
(default 15%) is a hard regression: the script exits 1. Lower-is-better
wall-clock metrics (raw wall-clock / ns-per-op readings, which are just
the inverse view of the rates) are advisory: a bad move is printed as
ADVISORY but does not fail the run. This makes the gate strict on the
throughput trajectory while tolerating wall-clock jitter; the committed
trajectory is refreshed deliberately on a quiet host.

events_per_packet is the exception among lower-is-better metrics: it
is a host-independent work counter (the scheduler processes the same
events no matter the host, backend or worker count), so an increase
beyond tolerance is always a hard regression. Conversely, when either
file was produced on a single-hardware-thread host, the wall-clock
throughput comparisons are demoted to advisory — a 1-thread runner
time-slicing shard workers makes "sharded slower than unsharded"
readings meaningless — and the work counters carry the gate alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

INFORMATIONAL = {
    "ops",
    "configs",
    "jobs",
    "hw_threads",
    "deterministic",
    "packets",
    "events",
    "cores",
    "rx_queues",
    "flows",
    "link_pcie_ns",
    "link_mesh_ns",
    "micro_reps",
    "reallocations",
}

# Lower-is-better metrics that hard-gate (host-independent work
# counters, not wall-clock readings).
HARD_LOWER = {"events_per_packet"}

# Build-stamp fields that are recorded but do not make two builds
# different programs.
STAMP_IGNORED = {"revision"}

# Simulated latency percentiles (tenant.*.rpc_p99_us and friends):
# deterministic model outputs, so a rise beyond tolerance is a real
# behaviour regression and gates hard, lower-is-better.
SIM_LATENCY_RE = re.compile(r"_p\d+_us$")


def is_hard_lower(leaf: str) -> bool:
    return leaf in HARD_LOWER or bool(SIM_LATENCY_RE.search(leaf))


def config_mismatches(base_doc: dict, cur_doc: dict) -> list[str]:
    """Describe every way the two files' build configurations differ."""
    base_stamp = base_doc.get("build")
    cur_stamp = cur_doc.get("build")
    missing = [name for name, stamp in (("baseline", base_stamp),
                                        ("current", cur_stamp))
               if not isinstance(stamp, dict)]
    if missing:
        return [f"{name} file has no build stamp" for name in missing]
    return [f"{key}: {base_stamp.get(key)!r} vs {cur_stamp.get(key)!r}"
            for key in sorted(base_stamp.keys() | cur_stamp.keys())
            if key not in STAMP_IGNORED
            and base_stamp.get(key) != cur_stamp.get(key)]


def flatten(node, prefix=""):
    """Yield (dotted-path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from flatten(val, f"{prefix}{key}.")
    elif isinstance(node, bool):
        return  # bool is an int subclass in python; never compare
    elif isinstance(node, (int, float)):
        yield prefix.rstrip("."), node


def direction(path: str):
    """Return +1 (higher better), -1 (lower better), or None (skip)."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf in INFORMATIONAL:
        return None
    # Throughput rates first: "packets_per_wall_sec" contains
    # "wall_sec" and must not fall into the lower-is-better bucket.
    if is_hard_lower(leaf):
        return -1
    if "per_wall_sec" in leaf:
        return +1
    if leaf.endswith("PerSec") or "speedup" in leaf:
        return +1
    if leaf.startswith("nsPer") or "wallsec" in leaf.lower():
        return -1
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional move in the bad direction (default 0.15)",
    )
    ap.add_argument(
        "--across-configs",
        action="store_true",
        help="compare even when the build stamps differ",
    )
    args = ap.parse_args()

    base_doc = json.loads(args.baseline.read_text())
    cur_doc = json.loads(args.current.read_text())

    mismatches = config_mismatches(base_doc, cur_doc)
    if mismatches and not args.across_configs:
        print("error: the two files come from different build "
              "configurations and are not comparable:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        print("rebuild one side to match (the committed trajectory is "
              "a release-preset build), or pass --across-configs",
              file=sys.stderr)
        return 2
    for m in mismatches:
        print(f"NOTICE: comparing across build configs: {m}")
    base = dict(flatten(base_doc))
    cur = dict(flatten(cur_doc))

    # On a single-hardware-thread host every wall-clock rate is noise
    # (shard workers time-slice one core), so only the deterministic
    # work counters gate; the rates print as advisory.
    single_thread = (base_doc.get("hw_threads") == 1
                     or cur_doc.get("hw_threads") == 1)
    if single_thread:
        print("single-hardware-thread run detected: wall-clock "
              "metrics are advisory; work counters gate")

    regressions = []
    advisories = []
    compared = 0
    for path in sorted(base.keys() & cur.keys()):
        sense = direction(path)
        if sense is None:
            continue
        leaf = path.rsplit(".", 1)[-1]
        hard = is_hard_lower(leaf) or (sense > 0 and not single_thread)
        b, c = base[path], cur[path]
        if b == 0:
            continue
        change = (c - b) / abs(b)  # >0 means the value went up
        bad = -sense * change  # >0 means it moved the wrong way
        if bad <= args.tolerance:
            flag = "ok"
        elif hard:
            flag = "REGRESSION"
            regressions.append(path)
        else:
            flag = "ADVISORY"
            advisories.append(path)
        compared += 1
        print(f"{flag:>10}  {path:<42} {b:>14.4g} -> {c:>14.4g} "
              f"({change:+.1%})")

    if compared == 0:
        print("error: no comparable metrics shared by the two files",
              file=sys.stderr)
        return 2
    if advisories:
        print(f"\nadvisory (wall-clock jitter, not gating): "
              f"{', '.join(advisories)}")
    if regressions:
        print(f"\n{len(regressions)} throughput regression(s) beyond "
              f"{args.tolerance:.0%}: {', '.join(regressions)}")
        return 1
    print(f"\nall {compared} compared metrics within "
          f"{args.tolerance:.0%} (or advisory)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
