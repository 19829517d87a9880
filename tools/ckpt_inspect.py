#!/usr/bin/env python3
"""Inspect an IDIO simulator checkpoint file.

Parses the sectioned binary format written by ckpt::save() (see
src/ckpt/serializer.hh for the layout), prints the header and one row
per section (name, schema version, payload size, checksum), and
validates the whole file: magic, format version, section bounds,
FNV-1a checksums, duplicate names and trailing bytes. The `_eventq`
section is decoded too; this tool reads its version 4 only.

Exit status: 0 when the checkpoint is well-formed, 1 on any
corruption, 2 on usage errors.

Usage:
    tools/ckpt_inspect.py FILE.ckpt
"""

import argparse
import struct
import sys

MAGIC = b"IDIOCKPT"
FORMAT_VERSION = 4
EVENTQ_VERSION = 4

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
FNV_MASK = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & FNV_MASK
    return h


class Corrupt(Exception):
    pass


class Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise Corrupt(
                f"truncated: {what} needs {n} bytes at offset "
                f"{self.pos}, only {len(self.blob) - self.pos} left")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def inspect(path: str) -> int:
    with open(path, "rb") as fh:
        blob = fh.read()

    r = Reader(blob)
    failures = 0

    magic = r.take(8, "magic")
    if magic != MAGIC:
        print(f"FAIL bad magic {magic!r} (want {MAGIC!r})")
        return 1

    version = r.u32("formatVersion")
    seed = r.u64("seed")
    tick = r.u64("tick")
    count = r.u32("sectionCount")

    print(f"{path}: {len(blob)} bytes")
    print(f"  formatVersion {version}   seed {seed}   "
          f"tick {tick} ({tick / 1e6:.3f} us)   {count} sections")
    if version != FORMAT_VERSION:
        print(f"FAIL formatVersion {version}; this tool understands "
              f"{FORMAT_VERSION}")
        failures += 1

    rows = []
    seen = set()
    for i in range(count):
        name_len = r.u32(f"section {i} nameLen")
        name = r.take(name_len, f"section {i} name").decode(
            "utf-8", errors="replace")
        sec_version = r.u32(f"section '{name}' version")
        payload_len = r.u64(f"section '{name}' payloadLen")
        checksum = r.u64(f"section '{name}' checksum")
        payload = r.take(payload_len, f"section '{name}' payload")

        status = "ok"
        if name in seen:
            status = "DUPLICATE"
            failures += 1
        seen.add(name)
        if fnv1a(payload) != checksum:
            status = "BAD-CHECKSUM"
            failures += 1
        rows.append((name, sec_version, payload_len, checksum, status,
                     payload))

    if r.pos != len(blob):
        print(f"FAIL {len(blob) - r.pos} trailing bytes after the "
              "last section")
        failures += 1

    width = max((len(r[0]) for r in rows), default=4)
    print(f"\n  {'section':<{width}}  {'ver':>3}  {'bytes':>10}  "
          f"{'fnv1a-64':>16}  status")
    for name, ver, size, csum, status, _ in rows:
        print(f"  {name:<{width}}  {ver:>3}  {size:>10}  "
              f"{csum:016x}  {status}")

    for name, ver, _, _, _, payload in rows:
        if name != "_eventq":
            continue
        if ver != EVENTQ_VERSION:
            print(f"FAIL '{name}' section version {ver}; this tool "
                  f"reads version {EVENTQ_VERSION} only (version 3 "
                  "carried the removed post-event hook counter)")
            failures += 1
        else:
            print(f"  {name}: {decode_eventq(payload)}")

    if failures:
        print(f"\n{failures} problem(s) found")
        return 1
    print(f"\nall {count} section checksums valid")
    return 0


def decode_eventq(payload: bytes) -> str:
    """Pretty-print a v4 _eventq section (see ckpt saveEventq)."""
    if len(payload) != 4 + 4 + 8 * 5:
        raise Corrupt(f"'_eventq' payload is {len(payload)} bytes; "
                      "version 4 has 48")
    levels, slot_bits = struct.unpack_from("<II", payload, 0)
    wheel_base, tick, next_seq, processed, pending = \
        struct.unpack_from("<5Q", payload, 8)
    return (f"wheel={levels}x2^{slot_bits} base={wheel_base} "
            f"tick={tick} nextSeq={next_seq} processed={processed} "
            f"pending={pending}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkpoint", help="checkpoint file "
                    "(from --checkpoint=FILE or ckpt::saveToFile)")
    args = ap.parse_args()
    try:
        return inspect(args.checkpoint)
    except Corrupt as e:
        print(f"FAIL {e}")
        return 1
    except BrokenPipeError:
        # Output piped into head/less that exited early — not an error.
        sys.stderr.close()
        return 0
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
