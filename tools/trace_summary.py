#!/usr/bin/env python3
"""Aggregate an IDIO packet-lifecycle trace into summary tables.

Input is the Chrome trace-event JSON written by ``--trace=FILE``
(benches / examples) or ``trace::writeChromeTrace``. The tool prints

  * a placement-outcome table: how many inbound DMA cachelines went
    down each path (DDIO update / DDIO allocate / MLC prefetch /
    DRAM direct) and how many lines left the hierarchy as dead LLC
    writebacks vs. self-invalidations;
  * lifecycle counts (packets received / dropped / consumed);
  * per-stage latency percentiles derived by correlating events that
    share one packet id (DMA, ring-wait, NF processing, total).

With ``--check-totals SIDECAR`` (the ``FILE.totals.json`` written
alongside every ``--trace`` run: the run's ``harness::RunReport``, in
the same schema as the benches' ``--json`` runs) the tool additionally
asserts that every trace-derived count exactly matches the
simulator's own counters and exits 1 on any mismatch — the CI trace
smoke gate. A sidecar of another report ``schemaVersion`` fails
without comparing fields, naming its version.

With ``--by-tenant`` (tenant-mode traces, e.g. ``bench/tenant_mix
--trace``) the tool also prints per-tenant lifecycle tables and
per-stage latency percentiles, attributing events through the
core->tenant map in the report's ``tenants`` array (``nf.consume``
carries the consuming core; NIC events come from the per-core
``system.nf<i>.nic`` sources). Every attributable per-tenant count is
cross-checked exactly against the sidecar's per-tenant totals; any
mismatch exits non-zero.

A trace that is missing, is not JSON, or is JSON without a
``traceEvents`` array, and a sidecar that is missing or not JSON, are
usage errors: one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter, defaultdict


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1,
                      int(round(p / 100.0 * len(sorted_vals))) - 1))
    return sorted_vals[rank]


class BadInput(Exception):
    """An input file is missing, not JSON, or not a Chrome trace."""


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise BadInput(f"cannot read '{path}': {e.strerror}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise BadInput(f"'{path}' is not JSON: {e}") from e


def load_trace(path: str) -> dict:
    trace = load_json(path)
    if not isinstance(trace, dict) or \
            not isinstance(trace.get("traceEvents"), list):
        raise BadInput(f"'{path}' is not a Chrome trace "
                       "(no traceEvents array)")
    return trace


def event_counts(trace: dict) -> Counter:
    counts: Counter = Counter()
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") in ("i", "X", "C"):
            counts[ev["name"]] += 1
    return counts


def stage_latencies(trace: dict) -> dict[str, list[float]]:
    """Per-packet stage latencies in microseconds, keyed by stage."""
    # pkt id -> {event name -> (ts, dur)}; keep the first occurrence
    # (ids are unique per packet, names unique per stage).
    per_pkt: dict[int, dict[str, tuple[float, float]]] = \
        defaultdict(dict)
    for ev in trace.get("traceEvents", []):
        pkt = ev.get("args", {}).get("pkt")
        if not pkt:
            continue
        name = ev["name"]
        if name not in per_pkt[pkt]:
            per_pkt[pkt][name] = (float(ev["ts"]),
                                  float(ev.get("dur", 0.0)))

    stages: dict[str, list[float]] = defaultdict(list)
    for events in per_pkt.values():
        if "nic.rx" not in events:
            continue
        rx_ts = events["nic.rx"][0]
        if "nic.dmaPayload" in events:
            ts, dur = events["nic.dmaPayload"]
            stages["dma (rx -> payload landed)"].append(
                ts + dur - rx_ts)
        if "nic.descWb" in events and "nf.consume" in events:
            stages["ring wait (descWb -> consume)"].append(
                events["nf.consume"][0] - events["nic.descWb"][0])
        if "nf.consume" in events:
            ts, dur = events["nf.consume"]
            stages["nf processing (consume span)"].append(dur)
            stages["total (rx -> consumed)"].append(ts + dur - rx_ts)
    return stages


PLACEMENT_ROWS = [
    ("DDIO in-place update", "cache.ddioUpdate"),
    ("DDIO way allocation", "cache.ddioAlloc"),
    ("MLC prefetch fill", "cache.mlcPrefetchFill"),
    ("DRAM direct (M3)", "cache.dramDirect"),
    ("MLC demand fill", "cache.mlcFill"),
    ("MLC eviction (MLC->LLC)", "cache.mlcEvict"),
    ("PCIe invalidation", "cache.pcieInval"),
    ("self-invalidation (M1)", "cache.selfInval"),
    ("dead writeback (LLC->DRAM)", "cache.llcWb"),
]

LIFECYCLE_ROWS = [
    ("packets received", "nic.rx"),
    ("packets dropped (ring full)", "nic.drop"),
    ("classifier decisions", "nic.classify"),
    ("payload DMA spans", "nic.dmaPayload"),
    ("descriptor writebacks", "nic.descWb"),
    ("IDIO header hints", "idio.hintHeader"),
    ("IDIO payload hints", "idio.hintPayload"),
    ("IDIO direct-DRAM steers", "idio.directDram"),
    ("mbuf allocs (re-arm)", "dpdk.alloc"),
    ("mbuf frees", "dpdk.free"),
    ("packets consumed by NF", "nf.consume"),
]

# report field -> trace event name whose count must match exactly
CHECKS = [
    ("rxPackets", "nic.rx"),
    ("rxDrops", "nic.drop"),
    ("processedPackets", "nf.consume"),
    ("mlcWritebacks", "cache.mlcEvict"),
    ("mlcPcieInvals", "cache.pcieInval"),
    ("llcWritebacks", "cache.llcWb"),
    ("ddioUpdates", "cache.ddioUpdate"),
    ("ddioAllocs", "cache.ddioAlloc"),
    ("directDramWrites", "cache.dramDirect"),
    ("mlcPrefetchFills", "cache.mlcPrefetchFill"),
    ("mlcSelfInvals", "cache.selfInval"),
]


def print_table(title: str, rows: list[tuple[str, str]]) -> None:
    print(f"\n{title}")
    width = max(len(r[0]) for r in rows)
    for label, value in rows:
        print(f"  {label:<{width}}  {value}")


# Run report schema this script reads (harness::reportSchemaVersion
# in src/harness/run_report.hh).
REPORT_SCHEMA_VERSION = 2


def check_totals(counts: Counter, totals: dict, dropped: int) -> int:
    failures = 0
    if dropped:
        print(f"FAIL ring truncation: {dropped} events were "
              "overwritten; counts cannot be cross-checked "
              "(raise the ring capacity or shorten the run)")
        failures += 1

    # A field the report lacks reads None and fails.
    for field, name in CHECKS:
        want = totals.get(field)
        got = counts.get(name, 0)
        status = "ok  " if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"{status} {name:<24} trace={got:<10} "
              f"totals.{field}={want}")

    # Every inbound DMA line takes exactly one placement path.
    placed = (counts.get("cache.ddioUpdate", 0) +
              counts.get("cache.ddioAlloc", 0) +
              counts.get("cache.dramDirect", 0))
    want = totals.get("pcieWrites")
    status = "ok  " if placed == want else "FAIL"
    if placed != want:
        failures += 1
    print(f"{status} {'placement sum':<24} trace={placed:<10} "
          f"totals.pcieWrites={want}")
    return failures


# report tenant field -> trace event name (the per-tenant slice of
# CHECKS; cache events come from the shared hierarchy source and are
# not attributable to a tenant from the trace alone)
TENANT_CHECKS = [
    ("rxPackets", "nic.rx"),
    ("rxDrops", "nic.drop"),
    ("processedPackets", "nf.consume"),
]


def source_core(name: str) -> int | None:
    """Core id of a per-core source name (``system.nf<i>...``)."""
    m = re.match(r"system\.nf(\d+)(?:\.|$)", name)
    return int(m.group(1)) if m else None


def tenant_breakdown(trace: dict, totals: dict, dropped: int) -> int:
    """Per-tenant tables + exact cross-check; returns failure count."""
    tenants = totals.get("tenants")
    if not tenants:
        print("FAIL --by-tenant: the sidecar's 'tenants' array is "
              "empty (not a tenant-mode trace?)")
        return 1

    core_to_tenant: dict[int, str] = {}
    for t in tenants:
        for c in t.get("cores", []):
            core_to_tenant[c] = t["name"]

    tid_to_core: dict[int, int] = {}
    for s in trace.get("idio", {}).get("sources", []):
        core = source_core(s.get("name", ""))
        if core is not None:
            tid_to_core[s["tid"]] = core

    counts: dict[str, Counter] = {t["name"]: Counter()
                                  for t in tenants}
    pkt_tenant: dict[int, str] = {}
    per_pkt: dict[int, dict[str, tuple[float, float]]] = \
        defaultdict(dict)
    for ev in trace.get("traceEvents", []):
        name = ev.get("name", "")
        args = ev.get("args", {})
        tenant = None
        if name.startswith("nic.") or name.startswith("dpdk."):
            core = tid_to_core.get(ev.get("tid"))
            tenant = core_to_tenant.get(core)
        elif "core" in args:
            tenant = core_to_tenant.get(args["core"])
        if tenant is not None and ev.get("ph") in ("i", "X", "C"):
            counts[tenant][name] += 1

        pkt = args.get("pkt")
        if not pkt:
            continue
        if name not in per_pkt[pkt]:
            per_pkt[pkt][name] = (float(ev["ts"]),
                                  float(ev.get("dur", 0.0)))
        if tenant is not None and \
                (name == "nf.consume" or pkt not in pkt_tenant):
            pkt_tenant[pkt] = tenant

    # Per-tenant per-stage latencies: a packet belongs to the tenant
    # that consumed it (falling back to the receiving NIC's tenant).
    stages: dict[str, dict[str, list[float]]] = \
        {t["name"]: defaultdict(list) for t in tenants}
    for pkt, events in per_pkt.items():
        tenant = pkt_tenant.get(pkt)
        if tenant is None or "nic.rx" not in events:
            continue
        rx_ts = events["nic.rx"][0]
        if "nf.consume" in events:
            ts, dur = events["nf.consume"]
            stages[tenant]["total (rx -> consumed)"].append(
                ts + dur - rx_ts)
        if "nic.descWb" in events and "nf.consume" in events:
            stages[tenant]["ring wait (descWb -> consume)"].append(
                events["nf.consume"][0] - events["nic.descWb"][0])

    for t in tenants:
        name = t["name"]
        label = (f"Tenant '{name}' (slo={t.get('slo', '?')}, "
                 f"cores={t.get('cores', [])}, "
                 f"ways={t.get('ways', 0)})")
        rows = [(lbl, str(counts[name].get(ev, 0)))
                for lbl, ev in LIFECYCLE_ROWS
                if ev in ("nic.rx", "nic.drop", "nic.dmaPayload",
                          "nic.descWb", "nf.consume", "dpdk.alloc",
                          "dpdk.free")]
        rows.append(("sidecar p99 / p99.9 (us)",
                     f"{t.get('p99Us', 0):.3f} / "
                     f"{t.get('p999Us', 0):.3f}"))
        print_table(label, rows)
        for stage, vals in sorted(stages[name].items()):
            vals.sort()
            print(f"    {stage:<30} n={len(vals):<7} "
                  f"p50={percentile(vals, 50):8.3f}us  "
                  f"p99={percentile(vals, 99):8.3f}us  "
                  f"max={vals[-1]:8.3f}us")

    print()
    failures = 0
    if dropped:
        print(f"FAIL ring truncation: {dropped} events were "
              "overwritten; per-tenant counts cannot be "
              "cross-checked")
        failures += 1
    for t in tenants:
        for field, name in TENANT_CHECKS:
            want = t.get(field)
            got = counts[t["name"]].get(name, 0)
            status = "ok  " if got == want else "FAIL"
            if got != want:
                failures += 1
            print(f"{status} {t['name'] + '.' + name:<28} "
                  f"trace={got:<10} "
                  f"tenants[].{field}={want}")
    if not failures:
        print("\nall per-tenant trace counts match the sidecar")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", help="Chrome trace-event JSON "
                    "(from --trace=FILE)")
    ap.add_argument("--check-totals", metavar="SIDECAR",
                    help="assert trace counts match the "
                    "FILE.totals.json sidecar; exit 1 on mismatch")
    ap.add_argument("--by-tenant", action="store_true",
                    help="per-tenant breakdown and exact per-tenant "
                    "cross-check (needs the totals sidecar, taken "
                    "from --check-totals or TRACE.totals.json)")
    args = ap.parse_args()

    sidecar_path = args.check_totals or \
        (args.by_tenant and args.trace + ".totals.json")
    try:
        trace = load_trace(args.trace)
        sidecar = load_json(sidecar_path) if sidecar_path else {}
    except BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    version = sidecar.get("schemaVersion") \
        if isinstance(sidecar, dict) else None
    if sidecar_path and version != REPORT_SCHEMA_VERSION:
        print(f"FAIL sidecar {sidecar_path} has schemaVersion "
              f"{version!r}; this script reads run report schema "
              f"{REPORT_SCHEMA_VERSION} (regenerate the sidecar or "
              "update the tool)")
        return 1
    counts = event_counts(trace)

    sources = trace.get("idio", {}).get("sources", [])
    dropped = sum(s.get("dropped", 0) for s in sources)
    recorded = sum(s.get("recorded", 0) for s in sources)

    print(f"{args.trace}: {recorded} events from "
          f"{len(sources)} sources"
          + (f" ({dropped} LOST to ring wraparound)" if dropped
             else ""))

    print_table("Placement outcomes (inbound DMA cachelines)",
                [(label, str(counts.get(name, 0)))
                 for label, name in PLACEMENT_ROWS])
    print_table("Packet lifecycle",
                [(label, str(counts.get(name, 0)))
                 for label, name in LIFECYCLE_ROWS])

    stages = stage_latencies(trace)
    if stages:
        rows = []
        for stage, vals in stages.items():
            vals.sort()
            rows.append((stage,
                         f"n={len(vals):<7} "
                         f"p50={percentile(vals, 50):8.3f}us  "
                         f"p90={percentile(vals, 90):8.3f}us  "
                         f"p99={percentile(vals, 99):8.3f}us  "
                         f"max={vals[-1]:8.3f}us"))
        print_table("Per-stage latency (per packet id)", rows)

    failures = 0
    if args.by_tenant:
        print()
        failures += tenant_breakdown(trace, sidecar, dropped)

    if args.check_totals:
        print()
        failures += check_totals(counts, sidecar, dropped)

    if args.check_totals or args.by_tenant:
        if failures:
            print(f"\n{failures} cross-check(s) FAILED")
            return 1
        print("\nall trace counts match the run report")
    elif dropped:
        print("\nwarning: ring truncation — aggregate counts "
              "undercount the run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
