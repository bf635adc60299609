#!/usr/bin/env python3
"""Repository benchmark: UMT2013 on the three kernel paths plus QBOX churn.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench_sim` from the repository sources (two cmake trees under
`.bench_build/perfbench/`: `release` for timing, `traced` with -pg and an
allocation-counting operator new), derives the workload inputs from the
seed, runs the workload through the full stack and checks its outputs.

--trace 0 repeats the workload (one process per repetition, at least two)
for about --seconds, adds set-up-only processes so set-up time is a median
of many cold constructions, and reports the end-to-end metrics as medians.
--trace 1 runs the workload once untraced and once in the traced build and
reports the per-layer metrics: simulated per-layer counts, gprof self time
per `pd::<module>::` namespace, host allocations per event and the tracing
overhead. `--workload all` runs every workload untraced and adds the
Figure 6a fidelity line.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REP_TIMEOUT_S = 170
# Cold cluster+world constructions in set-up-only processes per run, on top
# of the one each repetition makes, so setup_s is a median of many samples.
SETUP_PROCS = 30
MIN_REPS = 2

# One set of inputs per application; the three UMT workloads share them, so
# a gain on one kernel path that costs another shows in the same seed.
WORKLOADS = {
    "umt_pico": {"app": "umt", "mode": "mckernel_hfi"},
    "umt_offload": {"app": "umt", "mode": "mckernel"},
    "umt_linux": {"app": "umt", "mode": "linux"},
    "qbox_churn": {"app": "qbox", "mode": "mckernel_hfi"},
}

# Seeded parameter bands: (low, high, step), centred on the proxy defaults
# (src/apps/proxies.hpp). They are kept narrow on purpose: on the noisy
# Linux path any perturbation of the inputs moves sim_solve_s by up to ~3 %,
# so wider bands would swamp its bound. The UMT angle-group count is not
# seeded at all (it stays at the proxy default): the event count, and with
# it run_s, scales with it.
BANDS = {
    "umt": {
        "angle-bytes": (159 << 10, 161 << 10, 1 << 9),
        "compute-ns": (9_500, 10_500, 100),
    },
    "qbox": {
        "bcast-bytes": (2032 << 10, 2064 << 10, 8 << 10),
        "alltoallv-bytes": (8128, 8192, 64),  # stays on the PIO path (<= 8 KiB)
        "scratch-bytes": (31 << 18, 33 << 18, 1 << 16),  # 7.75 .. 8.25 MiB
        "compute-ns": (1_090_000, 1_110_000, 1_000),
    },
}

MODULES = ("sim", "os", "ikc", "pico", "hfi", "hw", "mem", "psm", "mpirt", "apps")

# Figure 6a reference points for the fidelity line, printed and not gated:
# (numerator, denominator, paper value, paper claim, EXPERIMENTS.md range).
FIDELITY = (
    ("umt_linux", "umt_pico", 1.20, "McKernel+HFI1 up to +20% over Linux",
     "1.16-1.33 at most node counts"),
    ("umt_linux", "umt_offload", 0.20, "McKernel < 20% of Linux beyond 4 nodes",
     "0.36-0.54 at 2-128 nodes"),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def draw_inputs(app, seed):
    """The generated inputs for one seed: proxy parameters and noise seed."""
    rng = random.Random(f"{app}:{seed}")
    params = {}
    for name, (lo, hi, step) in BANDS[app].items():
        params[name] = lo + step * rng.randrange((hi - lo) // step + 1)
    params["noise-seed"] = rng.getrandbits(63)
    return params


# --- build ----------------------------------------------------------------

def build_tree(name, cmake_args):
    bdir = BUILD_DIR / name
    logfile = BUILD_DIR / f"{name}.log"
    bdir.mkdir(parents=True, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), *gen,
                      "-DCMAKE_BUILD_TYPE=Release", *cmake_args])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                              env=env).returncode:
                tail = logfile.read_text(errors="replace").splitlines()[-20:]
                raise BenchError(f"build of {name} failed:\n" + "\n".join(tail))
    return bdir / "perfbench_sim"


def build_all():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    release = build_tree("release", [])
    traced = build_tree("traced", ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg",
                                   "-DPERFBENCH_COUNT_ALLOCS=ON"])
    return release, traced


# --- one repetition -------------------------------------------------------

def run_rep(binary, workload, inputs, cwd, setup_only=False):
    wl = WORKLOADS[workload]
    cmd = [str(binary), "--app", wl["app"], "--mode", wl["mode"],
           "--setup-only", str(int(setup_only))]
    for name, value in inputs.items():
        cmd += [f"--{name}", str(value)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: perfbench_sim exited {proc.returncode}\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return rep


def cold_setups(release, workload, inputs, reps):
    """(cluster, world) seconds of the first construction in each process:
    the repetitions' own plus SETUP_PROCS set-up-only processes."""
    hosts = [r["host"] for r in reps]
    hosts += [run_rep(release, workload, inputs, ROOT, setup_only=True)["host"]
              for _ in range(SETUP_PROCS)]
    return [(h["setup_cluster_s"], h["setup_world_s"]) for h in hosts]


# --- gprof attribution ----------------------------------------------------

GPROF_LINE = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
MODULE_RE = re.compile(r"pd::(" + "|".join(MODULES) + r")::")


def qualified_head(name):
    """The function's qualified name: strip the argument list and, for
    templates, the leading return type (top-level spaces only)."""
    depth, end = 0, len(name)
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            end = i
            break
    head, depth, start = name[:end], 0, 0
    for i, c in enumerate(head):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
    return head[start:]


def module_of(name):
    head = qualified_head(name)
    m = MODULE_RE.match(head) or MODULE_RE.match(name)
    if m:
        return m.group(1)
    # Library templates instantiated for a module's types or lambdas (e.g.
    # std::function thunks around a pd::hw lambda) count for that module.
    if head.startswith(("std::", "__gnu_cxx::")):
        m = MODULE_RE.search(name)
        if m:
            return m.group(1)
    return None


def gprof_self_seconds(binary, gmon):
    out = subprocess.run(["gprof", "-b", "-p", "--demangle", str(binary), str(gmon)],
                         capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"gprof failed: {out.stderr[-2000:]}")
    by_module = dict.fromkeys(MODULES, 0.0)
    other = 0.0
    for line in out.stdout.splitlines():
        m = GPROF_LINE.match(line)
        if not m:
            continue
        self_s, name = float(m.group(1)), m.group(2)
        mod = module_of(name)
        if mod:
            by_module[mod] += self_s
        else:
            other += self_s
    return by_module, other


# --- workloads ------------------------------------------------------------

def check_rep(workload, rep, digest):
    if rep["errors"]:
        raise BenchError(f"{workload}: output check failed: " + "; ".join(rep["errors"]))
    if digest is not None and rep["digest"] != digest:
        raise BenchError(f"{workload}: simulated-output digest changed between repetitions "
                         f"({digest} vs {rep['digest']})")


def timed_run(workload, seed, seconds, release):
    inputs = draw_inputs(WORKLOADS[workload]["app"], seed)
    reps, t0 = [], time.monotonic()
    while True:
        rep = run_rep(release, workload, inputs, ROOT)
        check_rep(workload, rep, reps[0]["digest"] if reps else None)
        reps.append(rep)
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = cold_setups(release, workload, inputs, reps)
    values = {
        "run_s": statistics.median(r["host"]["run_s"] for r in reps),
        "setup_s": statistics.median(c + w for c, w in setups),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for r in reps),
        "sim_solve_s": reps[0]["sim"]["sim_solve_s"],
    }
    return reps, values


def traced_run(workload, seed, release, traced):
    inputs = draw_inputs(WORKLOADS[workload]["app"], seed)
    base = run_rep(release, workload, inputs, ROOT)
    check_rep(workload, base, None)
    setups = cold_setups(release, workload, inputs, [base])
    tdir = BUILD_DIR / "trace" / workload
    tdir.mkdir(parents=True, exist_ok=True)
    gmon = tdir / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    tr = run_rep(traced, workload, inputs, tdir)
    check_rep(workload, tr, base["digest"])
    by_module, other = gprof_self_seconds(traced, gmon)
    sim, host = base["sim"], base["host"]
    values = {k: v for k, v in sim.items() if k != "sim_solve_s"}
    values.update({f"{m}.host_self_s": round(s, 6) for m, s in by_module.items()})
    values.update({
        "sim.host_ns_per_event": 1e9 * host["run_s"] / sim["sim.events"],
        "sim.host_allocs_per_event": tr["host"]["run_allocs"] / tr["sim"]["sim.events"],
        "apps.setup_cluster_s": statistics.median(c for c, _ in setups),
        "apps.setup_world_s": statistics.median(w for _, w in setups),
        "host.other_s": round(other, 6),
        "host.unattributed_s": max(0.0, tr["cpu_s"] - other - sum(by_module.values())),
        "trace.overhead_ratio": tr["host"]["run_s"] / host["run_s"],
    })
    return [base, tr], values


def select_metrics(spec, values):
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def print_summary(workload, seed, reps, values, spec):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    inputs = " ".join(f"{k}={v}" for k, v in draw_inputs(WORKLOADS[workload]["app"], seed).items())
    print(f"== {workload} seed={seed} processes={len(reps)} digest={reps[0]['digest']}")
    print(f"   inputs: {inputs}")
    for m in spec:
        print(f"   {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(f"   {'failed_ratio':<28} {failed / attempted:.6g} ({failed} / {attempted} operations)")


def print_fidelity(solve):
    for num, den, paper, claim, experiments in FIDELITY:
        ratio = solve[num] / solve[den]
        print(f"fidelity: sim_solve_s {num}/{den} = {ratio:.3f}; Figure 6a {paper:.2f} "
              f"({claim}), error {ratio - paper:+.3f} ({100 * (ratio / paper - 1):+.0f}%); "
              f"EXPERIMENTS.md {experiments}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    release, traced = build_all()

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.workload == "all":
            solve = {}
            for wl in WORKLOADS:
                reps, values = timed_run(wl, args.seed, args.seconds, release)
                print_summary(wl, args.seed, reps, values, spec["end_to_end"])
                result["metrics"][wl] = select_metrics(spec["end_to_end"], values)
                result["attempted"] += sum(r["attempted"] for r in reps)
                result["failed"] += sum(r["failed"] for r in reps)
                solve[wl] = values["sim_solve_s"]
            print_fidelity(solve)
        else:
            if args.trace:
                reps, values = traced_run(args.workload, args.seed, release, traced)
                metric_spec = spec["per_layer"]
            else:
                reps, values = timed_run(args.workload, args.seed, args.seconds, release)
                metric_spec = spec["end_to_end"]
            print_summary(args.workload, args.seed, reps, values, metric_spec)
            result["metrics"] = select_metrics(metric_spec, values)
            result["attempted"] = sum(r["attempted"] for r in reps)
            result["failed"] = sum(r["failed"] for r in reps)
    except BenchError as e:
        log(f"perfbench: {e}")
        result["correct"] = False
        print(json.dumps(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
