#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark package (perfbench/) is
configured and built into .bench_build/perfbench in the release
configuration, compiling the simulator library from src/. The binary's
standard output is passed through unchanged; its last line is the JSON
result. Build output goes to standard error. Exits non-zero, printing no
result, when the simulator sources are missing or the build or the run
fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build(targets):
    """Configure once, then bring @p targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def revision():
    """The git commit when there is one, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def last_metrics(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, set(result["metrics"])


def selftest():
    """Unit tests of the benchmark, then its output against its spec."""
    build(["perfbench", "perfbench_selftest"])
    ok = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                        cwd=ROOT).returncode == 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("workloads", "end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                log(f"bad {group} name {m['name']!r}")
                ok = False
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            log(f"bound of {m['name']} out of range")
            ok = False

    # Every declared metric is printed, and nothing else: a short
    # untraced and traced run of the quickest workload.
    binary = os.path.join(BUILD, "perfbench")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [binary, "--workload", "tenant_mix", "--seed", "1",
             "--seconds", "1", "--trace", str(trace),
             "--out-dir", os.path.join(BUILD, "out")],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        result, names = last_metrics(out.stdout)
        want = {m["name"] for m in spec[group]}
        if out.returncode != 0 or not result["correct"] or names != want:
            log(f"trace {trace}: rc={out.returncode} "
                f"correct={result['correct']} "
                f"missing={sorted(want - names)} extra={sorted(names - want)}")
            ok = False
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")

    build(["perfbench"])
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision(),
           "--out-dir", os.path.join(".bench_build", "perfbench", "out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {run.returncode}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
