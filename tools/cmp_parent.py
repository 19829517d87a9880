#!/usr/bin/env python3
"""Byte-compare the simulator's outputs against another revision.

Builds REV from `git archive` in a scratch directory and the working
tree in its own `build-release` directory, both with the `release`
CMake preset. It then runs the same commands in both trees and
compares every artifact byte for byte:

  * fig09/fig10/fig12/fig14: `--json` file and stdout, once with the
    default machine and once with `--cores=8 --rx-queues=8`;
  * ablation_ddio_ways and ablation_way_tuner: stdout;
  * firewall_offload: stdout;
  * tenant_mix: `--json` file and stdout;
  * stats_dump: text stdout, and `idio --json` stdout;
  * quickstart: a cold run, a `--checkpoint=` run (stdout and the
    checkpoint file) and a `--restore=` run from that tree's own file.

Each artifact's exit status is part of the comparison.

Exit status: 0 when every artifact matches, 1 when some differ (each
is listed), 2 on a usage or build error.

Usage:
    tools/cmp_parent.py REV

REV is unpacked and built in `build-cmp-<sha>` at the repository
root; a second run against the same REV reuses that build.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIGURES = ["fig09_policies", "fig10_normalized", "fig12_tail_latency",
           "fig14_sensitivity"]


class UsageError(Exception):
    pass


def artifacts():
    """(name, binary, args, files written) for every compared run.

    Runs happen in order, in one output directory per tree, so the
    quickstart restore reads the checkpoint its own tree wrote.
    """
    runs = []
    for fig in FIGURES:
        short = fig.split("_")[0]
        runs.append((short, "bench/" + fig,
                     [f"--json={short}.json"], [f"{short}.json"]))
        runs.append((short + "-mq8", "bench/" + fig,
                     ["--cores=8", "--rx-queues=8",
                      f"--json={short}-mq8.json"],
                     [f"{short}-mq8.json"]))
    runs += [
        ("ablation_ddio_ways", "bench/ablation_ddio_ways", [], []),
        ("ablation_way_tuner", "bench/ablation_way_tuner", [], []),
        ("firewall_offload", "examples/firewall_offload", [], []),
        ("tenant_mix", "bench/tenant_mix", ["--json=tenant_mix.json"],
         ["tenant_mix.json"]),
        ("stats_dump", "examples/stats_dump", [], []),
        ("stats_dump-idio-json", "examples/stats_dump",
         ["idio", "--json"], []),
        ("quickstart", "examples/quickstart", [], []),
        ("quickstart-ckpt", "examples/quickstart",
         ["--checkpoint=quickstart.ckpt"], ["quickstart.ckpt"]),
        ("quickstart-restore", "examples/quickstart",
         ["--restore=quickstart.ckpt"], []),
    ]
    return runs


def git(*args):
    res = subprocess.run(["git", "-C", REPO, *args],
                         capture_output=True)
    if res.returncode != 0:
        raise UsageError(f"git {' '.join(args)}: "
                         f"{res.stderr.decode(errors='replace').strip()}")
    return res.stdout


def export(sha, dest):
    """Unpack `git archive SHA` into DEST (once)."""
    if os.path.exists(os.path.join(dest, "CMakeLists.txt")):
        return
    os.makedirs(dest, exist_ok=True)
    blob = git("archive", "--format=tar", sha)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def build(src):
    """Configure and build SRC with the release preset."""
    for cmd in (["cmake", "--preset", "release"],
                ["cmake", "--build", "--preset", "release",
                 f"-j{os.cpu_count() or 1}"]):
        res = subprocess.run(cmd, cwd=src, capture_output=True)
        if res.returncode != 0:
            tail = res.stdout.decode(errors="replace")[-2000:]
            tail += res.stderr.decode(errors="replace")[-2000:]
            raise UsageError(f"build failed in {src}: "
                             f"{' '.join(cmd)}\n{tail}")
    return os.path.join(src, "build-release")


def run_all(build_dir, out_dir):
    """Run every artifact's command; return {artifact: bytes}."""
    os.makedirs(out_dir, exist_ok=True)
    got = {}
    for name, binary, args, files in artifacts():
        exe = os.path.join(build_dir, binary)
        if not os.access(exe, os.X_OK):
            raise UsageError(f"missing binary {exe}")
        for f in files:
            path = os.path.join(out_dir, f)
            if os.path.exists(path):
                os.remove(path)
        res = subprocess.run([exe, *args], cwd=out_dir,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT)
        got[name] = (f"exit {res.returncode}\n".encode() + res.stdout)
        with open(os.path.join(out_dir, name + ".stdout"), "wb") as fh:
            fh.write(res.stdout)
        for f in files:
            path = os.path.join(out_dir, f)
            data = b"<missing>"
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            got[f] = data
    return got


def main(argv):
    ap = argparse.ArgumentParser(
        description="Byte-compare bench, example and checkpoint "
                    "outputs of the working tree against REV.")
    ap.add_argument("rev", metavar="REV",
                    help="git revision to compare against")
    args = ap.parse_args(argv)

    try:
        sha = git("rev-parse", "--verify",
                  args.rev + "^{commit}").decode().strip()
        work = os.path.join(REPO, "build-cmp-" + sha[:12])
        export(sha, os.path.join(work, "src"))
        print(f"building {args.rev} ({sha[:12]}) in {work}/src",
              flush=True)
        ref_build = build(os.path.join(work, "src"))
        print("building the working tree", flush=True)
        cur_build = build(REPO)

        print("running commands", flush=True)
        ref = run_all(ref_build, os.path.join(work, "out", "ref"))
        cur = run_all(cur_build, os.path.join(work, "out", "cur"))
    except UsageError as e:
        print(f"cmp_parent: {e}", file=sys.stderr)
        return 2

    differing = [k for k in ref if ref[k] != cur.get(k)]
    for k in ref:
        print(f"  {'DIFFERS' if k in differing else 'same   '}  {k}")
    if differing:
        print(f"{len(differing)} of {len(ref)} artifacts differ from "
              f"{args.rev}: {', '.join(differing)}")
        print(f"outputs kept in {work}/out/{{ref,cur}}")
        return 1
    print(f"all {len(ref)} artifacts byte-identical to {args.rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
