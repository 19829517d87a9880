#!/usr/bin/env python3
"""Repo-specific lint for the IDIO simulator.

Custom rules (beyond what clang-tidy covers):

  no-assert      ``assert()`` is banned in src/ — it vanishes under
                 NDEBUG and skips the simulator's panic path. Use
                 SIM_ASSERT (sim/logging.hh). Tests/bench may use
                 gtest/raw asserts freely.
  no-naked-new   Naked ``new`` is banned everywhere — ownership must go
                 through std::make_unique/std::make_shared or a
                 documented owner.
  no-stdout      ``std::cout`` is banned in src/ — models must report
                 through sim::inform()/warn() so verbosity filtering
                 and log capture keep working.
  header-guard   Headers use ``IDIO_<DIR>_<FILE>_HH`` guards, with the
                 path relative to the repo root and the leading
                 ``src/`` dropped (e.g. src/cache/llc.hh ->
                 IDIO_CACHE_LLC_HH).
  access-struct  The structs that open EventQueue internals stay where
                 they belong: ``EventQueueTestAccess`` only under
                 tests/, ``EventQueueRestoreAccess`` only in src/ckpt/
                 and tests/ (both besides src/sim/event_queue.*, which
                 defines them).
  config-field   A data member with a default initializer in a
                 ``struct *Config`` under src/ must be set somewhere
                 a workload can reach: an assignment to it (``.f =``,
                 ``->f +=``, ``.f.x =``, ``.f[i] =``, ``.f.assign(``,
                 or a designated initializer ``{.f = ...}``) in src/
                 outside the header that declares it, or in bench/,
                 examples/ or perfbench/, in a file that names the
                 field's struct or a config struct holding it (so
                 ``ip.dscp =`` does not count for
                 ``ExperimentConfig::dscp``). A value no workload
                 sets is a constant: declare it ``constexpr`` beside
                 the code that uses it. A field that tests alone must
                 vary stays with ``// lint: allow(config-field)`` on
                 its line and a comment naming the test that needs it.

Suppress a rule on one line with a trailing ``// lint: allow(<rule>)``.

Modes:
  tools/lint.py                 run the custom rules
  tools/lint.py --format-check  additionally verify clang-format
                                compliance (skipped with a warning when
                                clang-format is not installed)

Exit status is non-zero when any violation is found.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CXX_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")
ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_.])assert\s*\(")
NAKED_NEW_RE = re.compile(r"\bnew\b\s*[A-Za-z_:(<]")
STDOUT_RE = re.compile(r"std\s*::\s*cout")

# Each EventQueue access struct and the path prefixes that may name it.
ACCESS_STRUCTS = {
    "EventQueueTestAccess": ("src/sim/event_queue.", "tests/"),
    "EventQueueRestoreAccess": ("src/sim/event_queue.", "src/ckpt/",
                                "tests/"),
}


# Where an assignment makes a config field a workload knob (src/ only
# outside the field's own header).
CONFIG_SETTER_DIRS = ("src", "bench", "examples", "perfbench")
CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w+Config)\s*\{")
# A defaulted data member on one line: `type name = v;`, `type name{v};`.
CONFIG_MEMBER_RE = re.compile(
    r"^\s*(?!static\b|using\b|friend\b|return\b)[\w:<>,\s*&]*?"
    r"\b(\w+)\s*(?:=|\{)")


def cxx_files(dirs: tuple[str, ...] = CXX_DIRS) -> list[pathlib.Path]:
    """All C++ sources, preferring git's view when available."""
    try:
        out = subprocess.run(
            ["git", "ls-files", "--", *dirs],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
        files = [REPO_ROOT / line for line in out.splitlines()]
    except (OSError, subprocess.CalledProcessError):
        files = [
            p for d in dirs for p in (REPO_ROOT / d).rglob("*")
        ]
    return sorted(
        p for p in files
        if p.suffix in CXX_SUFFIXES and p.is_file()
    )


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, keeping line
    numbers (and the lint-suppression markers) intact."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                # Keep "// lint: allow(...)" visible to the scanner.
                end = text.find("\n", i)
                end = n if end == -1 else end
                comment = text[i:end]
                m = ALLOW_RE.search(comment)
                out.append(m.group(0) if m else "")
                out.append(" " * (end - i - len(out[-1])))
                i = end
                state = "code"
                continue
            if c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block"
                continue
            if c == '"':
                out.append('"')
                i += 1
                state = "dquote"
                continue
            if c == "'":
                out.append("'")
                i += 1
                state = "squote"
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                out.append(quote)
                i += 1
                state = "code"
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class Violation:
    def __init__(self, path: pathlib.Path, line: int, rule: str,
                 message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def scan_file(path: pathlib.Path) -> list[Violation]:
    rel = path.relative_to(REPO_ROOT)
    in_src = rel.parts[0] == "src"
    text = path.read_text(encoding="utf-8")
    stripped = strip_comments_and_strings(text)

    violations: list[Violation] = []

    def check_line_rule(rule: str, regex: re.Pattern[str],
                        message: str, only_src: bool) -> None:
        if only_src and not in_src:
            return
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if not regex.search(line):
                continue
            allow = ALLOW_RE.search(line)
            if allow and allow.group(1) == rule:
                continue
            violations.append(Violation(path, lineno, rule, message))

    check_line_rule(
        "no-assert", ASSERT_RE,
        "assert() is banned in src/; use SIM_ASSERT (sim/logging.hh)",
        only_src=True)
    check_line_rule(
        "no-naked-new", NAKED_NEW_RE,
        "naked new; use std::make_unique/std::make_shared",
        only_src=False)
    check_line_rule(
        "no-stdout", STDOUT_RE,
        "std::cout is banned in src/; use sim::inform()",
        only_src=True)
    for name, allowed in ACCESS_STRUCTS.items():
        if not rel.as_posix().startswith(allowed):
            check_line_rule(
                "access-struct", re.compile(rf"\b{name}\b"),
                f"{name} may only be named in "
                + ", ".join(f"{a}*" for a in allowed),
                only_src=False)

    if path.suffix in (".hh", ".hpp"):
        violations.extend(check_header_guard(path, text))
    return violations


def config_fields(stripped: str) -> list[tuple[int, str, str]]:
    """(line, struct, member) of every defaulted data member of a
    ``struct *Config`` in @p stripped, skipping allowed lines."""
    fields = []
    for m in CONFIG_STRUCT_RE.finditer(stripped):
        first = stripped.count("\n", 0, m.end()) + 1  # the "{" line
        depth = 1
        for lineno, line in enumerate(stripped[m.end():].split("\n"),
                                      start=first):
            at_member_level = depth == 1
            depth += line.count("{") - line.count("}")
            if depth <= 0:
                break
            member = CONFIG_MEMBER_RE.match(line)
            allow = ALLOW_RE.search(line)
            if (at_member_level and member
                    and "(" not in line.split("=")[0]
                    and not (allow and allow.group(1) == "config-field")):
                fields.append((lineno, m.group(1), member.group(1)))
    return fields


def config_holders(stripped_headers: list[str]) -> dict[str, set[str]]:
    """For each ``*Config`` struct, the config structs whose objects
    reach it: itself and, transitively, every struct with a member of
    its type (``ExperimentConfig`` holds ``HierarchyConfig`` holds
    ``LevelConfig``)."""
    members: dict[str, str] = {}
    for text in stripped_headers:
        for m in CONFIG_STRUCT_RE.finditer(text):
            depth, i = 1, m.end()
            while depth and i < len(text):
                depth += {"{": 1, "}": -1}.get(text[i], 0)
                i += 1
            members[m.group(1)] = text[m.end():i]
    holders = {s: {s} for s in members}
    changed = True
    while changed:
        changed = False
        for outer, body in members.items():
            for inner in holders:
                if re.search(rf"\b{inner}\b", body) and \
                        not holders[outer] <= holders[inner]:
                    holders[inner] |= holders[outer]
                    changed = True
    return holders


def check_config_fields(files: list[pathlib.Path]) -> list[Violation]:
    """The config-field rule over the config headers among @p files.
    An assignment counts in a file of a setter directory that names
    the field's struct or a config struct holding it, so a same-named
    member of an unrelated struct does not hide an unset field."""
    headers = [p for p in files
               if p.relative_to(REPO_ROOT).parts[0] == "src"
               and p.suffix in (".hh", ".hpp")]
    setters = {p: strip_comments_and_strings(
                   p.read_text(encoding="utf-8"))
               for p in cxx_files(CONFIG_SETTER_DIRS)}
    holders = config_holders(
        [t for p, t in setters.items() if p.suffix in (".hh", ".hpp")])
    violations = []
    for header in headers:
        stripped = strip_comments_and_strings(
            header.read_text(encoding="utf-8"))
        for lineno, struct, name in config_fields(stripped):
            assign = re.compile(
                rf"(?:\.|->)\s*{name}\b(?:\s*\.\s*\w+|\s*\[[^\]]*\])*"
                r"\s*(?:[-+*/|&]?=(?!=)|\.\s*(?:assign|push_back|"
                r"emplace_back|resize|insert)\s*\()")
            named = re.compile(
                r"\b(?:" + "|".join(sorted(holders.get(struct, {struct})))
                + r")\b")
            if any(assign.search(text) and named.search(text)
                   for p, text in setters.items() if p != header):
                continue
            violations.append(Violation(
                header, lineno, "config-field",
                f"{struct}::{name} is set by no workload (src/ outside "
                "this header, bench/, examples/, perfbench/); make it "
                "a constexpr"))
    return violations


def expected_guard(path: pathlib.Path) -> str:
    rel = path.relative_to(REPO_ROOT)
    parts = rel.parts
    if parts[0] == "src":
        parts = parts[1:]
    stem = [re.sub(r"[^A-Za-z0-9]", "_", p) for p in parts[:-1]]
    stem.append(re.sub(r"[^A-Za-z0-9]", "_", path.stem))
    return "IDIO_" + "_".join(s.upper() for s in stem) + "_HH"


def check_header_guard(path: pathlib.Path,
                       text: str) -> list[Violation]:
    guard = expected_guard(path)
    ifndef = re.search(r"^#ifndef\s+(\S+)", text, re.MULTILINE)
    if not ifndef:
        return [Violation(path, 1, "header-guard",
                          f"missing include guard (expected {guard})")]
    got = ifndef.group(1)
    if got != guard:
        line = text[:ifndef.start()].count("\n") + 1
        return [Violation(path, line, "header-guard",
                          f"guard is {got}, expected {guard}")]
    if not re.search(rf"^#define\s+{re.escape(guard)}\b", text,
                     re.MULTILINE):
        return [Violation(path, 1, "header-guard",
                          f"#ifndef {guard} without matching #define")]
    return []


def run_format_check(files: list[pathlib.Path]) -> int:
    exe = shutil.which("clang-format")
    if not exe:
        print("lint: warning: clang-format not found; "
              "--format-check skipped", file=sys.stderr)
        return 0
    bad = 0
    for chunk_start in range(0, len(files), 50):
        chunk = files[chunk_start:chunk_start + 50]
        proc = subprocess.run(
            [exe, "--dry-run", "-Werror", *map(str, chunk)],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            bad += 1
            sys.stderr.write(proc.stderr)
    if bad:
        print("lint: clang-format check failed "
              "(run clang-format -i on the files above)",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format-check", action="store_true",
                        help="also verify clang-format compliance")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="restrict linting to these files")
    args = parser.parse_args()

    if args.files:
        missing = [p for p in args.files if not p.is_file()]
        if missing:
            for p in missing:
                print(f"lint: error: no such file: {p}",
                      file=sys.stderr)
            return 2
        files = [p.resolve() for p in args.files
                 if p.suffix in CXX_SUFFIXES]
    else:
        files = cxx_files()

    violations: list[Violation] = []
    for path in files:
        violations.extend(scan_file(path))
    violations.extend(check_config_fields(files))

    for v in violations:
        print(v)

    status = 1 if violations else 0
    if args.format_check:
        status |= run_format_check(files)

    if status == 0:
        print(f"lint: {len(files)} files clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
