#!/usr/bin/env python3
"""Heap attribution by call stack at the peak (LD_PRELOAD, stdlib only).

Builds tools/heapprof/heapprof.c into a shared object with the system C
compiler, runs a command with it preloaded, and reports which call stacks
held the live heap at the process's peak, symbolized with addr2line.
Nothing here depends on the repository's build. File:line output needs a
binary with debug info (the default RelWithDebInfo tree); perfbench's
Release tree yields function names only.

  python3 tools/heapprof.py run [--out DIR] [--top N] [--step BYTES] -- CMD...
  python3 tools/heapprof.py report [--top N] [--group frame|stack] FILE...

`run` writes one heapprof.<pid>.txt per profiled process into DIR (default
a fresh temporary directory) and reports each. Example, the 32-node UMT
fast-path workload:

  python3 tools/heapprof.py run -- \\
      .bench_build/perfbench/release/perfbench_sim --app umt --mode mckernel_hfi \\
      --angle-bytes 164352 --compute-ns 10200 --noise-seed 3800471079039726695

(the inputs `python3 perfbench/run.py --seed 1` draws for UMT; the binary
is built by any `perfbench/run.py` run).

The report lists, largest first, the live bytes at the peak per
attribution key. `--group frame` (the default) keys on the first frame
outside the allocator and the C++ standard library, the line that decided
to hold the memory; `--group stack` prints whole stacks. Peak snapshots are
taken every --step bytes of growth (default 256 KiB), so the reported peak
is within one step of the true one. `report` symbolizes against the
binaries named in the saved module map, so run it before rebuilding them.
"""

from __future__ import annotations

import argparse
import collections
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "heapprof" / "heapprof.c"

# Frames that belong to the allocator or the standard library, skipped when
# looking for the frame that decided to allocate.
NOISE = ("operator new", "malloc", "calloc", "realloc", "memalign", "posix_memalign",
         "std::", "__gnu_cxx::", "__cxx", "_M_", "??")


def build(outdir: Path) -> Path:
    lib = outdir / "heapprof.so"
    cc = os.environ.get("CC", "cc")
    subprocess.run([cc, "-O2", "-g", "-shared", "-fPIC", "-o", str(lib), str(SOURCE)],
                   check=True)
    return lib


def parse(path: Path):
    peak, stacks, maps, in_maps, failed = 0, [], [], False, 0
    for line in path.read_text(errors="replace").splitlines():
        if in_maps:
            maps.append(line)
        elif line == "maps":
            in_maps = True
        elif line.startswith("peak_bytes "):
            peak = int(line.split()[1])
        elif line.startswith("failed "):
            failed = int(line.split()[1])
        elif line.startswith("stack "):
            f = line.split()
            stacks.append((int(f[1]), int(f[2]), [int(a, 16) for a in f[3:]]))
    return peak, stacks, maps, failed


def modules(maps):
    """(start, end, file offset, path) of every file-backed mapping."""
    out = []
    for line in maps:
        f = line.split(maxsplit=5)
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        out.append((lo, hi, int(f[2], 16), f[5]))
    return out


def module_base(mods, path):
    """Load bias of `path`: its lowest mapping minus that mapping's offset."""
    return min(lo - off for lo, _, off, p in mods if p == path)


def symbolize(addrs, mods):
    """addr -> ['function (file:line)', ...]: the inline chain at that
    return address, innermost first, via one addr2line call per module."""
    by_module = collections.defaultdict(list)
    for a in addrs:
        # A return address points past the call; step back into it.
        pc = a - 1
        for lo, hi, _, path in mods:
            if lo <= pc < hi:
                by_module[path].append((a, pc - module_base(mods, path)))
                break
    names = {}
    for path, pairs in by_module.items():
        try:
            proc = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path] +
                                  [hex(off) for _, off in pairs],
                                  capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            continue
        # `-a` prints each queried address before its (function, location)
        # pairs, one pair per inline level.
        chains, lines = [], proc.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                chains.append([])
                i += 1
                continue
            func, loc = lines[i], lines[i + 1] if i + 1 < len(lines) else "??:?"
            chains[-1].append((func, loc))
            i += 2
        for (a, _), chain in zip(pairs, chains):
            names[a] = [f"{os.path.basename(path)}+{hex(a)}" if func == "??" else
                        f"{func} ({os.path.relpath(loc) if loc.startswith('/') else loc})"
                        for func, loc in chain]
    return names


def is_noise(name: str) -> bool:
    return name.startswith(NOISE)


def report(path: Path, top: int, group: str) -> None:
    peak, stacks, maps, failed = parse(path)
    mods = modules(maps)
    names = symbolize({a for _, _, pcs in stacks for a in pcs}, mods)
    print(f"== {path}: live heap at peak {peak / 2**20:.1f} MiB "
          f"({len(stacks)} stacks live at the peak)")
    if failed:
        print("   warning: the profiler ran out of table space; the figures undercount")
    rows = collections.Counter()
    allocs = collections.Counter()
    for live, count, pcs in stacks:
        frames = [f for a in pcs for f in names.get(a, [hex(a)])]
        if group == "stack":
            key = "\n      ".join(frames)
        else:
            key = next((f for f in frames if not is_noise(f)), frames[0] if frames else "?")
        rows[key] += live
        allocs[key] += count
    for key, live in rows.most_common(top):
        share = 100.0 * live / peak if peak else 0.0
        print(f"  {live / 2**20:9.2f} MiB {share:5.1f}%  {allocs[key]:>10} allocs  {key}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="profile a command")
    run.add_argument("--out", type=Path, help="directory for heapprof.<pid>.txt files")
    run.add_argument("--top", type=int, default=25)
    run.add_argument("--step", type=int, default=256 * 1024)
    run.add_argument("--group", choices=("frame", "stack"), default="frame")
    run.add_argument("command", nargs=argparse.REMAINDER)
    rep = sub.add_parser("report", help="report existing profiles")
    rep.add_argument("--top", type=int, default=25)
    rep.add_argument("--group", choices=("frame", "stack"), default="frame")
    rep.add_argument("files", nargs="+", type=Path)
    args = ap.parse_args()

    if args.cmd == "report":
        for f in args.files:
            report(f, args.top, args.group)
        return 0

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("run needs a command after --")
    out = args.out or Path(tempfile.mkdtemp(prefix="heapprof-"))
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="heapprof-build-") as tmp:
        lib = build(Path(tmp))
        env = dict(os.environ, LD_PRELOAD=str(lib), HEAPPROF_STEP=str(args.step),
                   HEAPPROF_OUT=str(out / "heapprof.%p.txt"))
        rc = subprocess.run(command, env=env).returncode
    for f in sorted(out.glob("heapprof.*.txt")):
        report(f, args.top, args.group)
    return rc


if __name__ == "__main__":
    sys.exit(main())
