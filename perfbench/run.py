"""The kronbrist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A pass runs every item of the workload once (``workloads.py``),
each in a fresh interpreter, one process at a time: a closed loop with one
client and no extra threads, all on one CPU.  Passes repeat while the next one should end
within ``--seconds`` (at least ``MIN_PASSES``).  Every report byte and
library result is checked against the digests recorded from the commit that
defined the benchmark (``digests.json``); an item that raises or whose
output differs counts as a failed operation.

With ``--trace 0`` the result carries the end-to-end metrics:

- ``wall_s``: the median over passes of the sum over a pass's processes of
  the time from the first scenario or library call to the last rendered
  byte;
- ``setup_s``: the median over the run's processes of the time from process
  start to the first call (interpreter start, imports, config and
  module-file parsing); set-up-only processes bring the count up to
  ``MIN_SETUP_SAMPLES``;
- ``peak_rss_mb``: the median over passes of the largest ``ru_maxrss``
  among a pass's processes.

Times are in reference seconds: a pass's times are multiplied by
``REF_PROBE_S`` over the median of the speed probes taken just before and
just after each of its processes (``speed_probe``).  The meta line gives
the factors and the measured pass times.

With ``--trace 1`` untraced and traced passes alternate; the result carries
the per-layer metrics of the traced passes (``tracing.py``) and
``trace.overhead_s``, the traced minus the untraced ``wall_s``.  Traced
reports must be byte-identical to untraced ones.

A line ``perfbench-meta: {...}`` before the result records sample counts,
values, the speed factors, the failed ratio, and the
source revision, Python and numpy versions, nproc and CPU model of the run.  The last line of standard output
is the result object.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_SPACE, WORKLOADS, items, scenario_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "kronbrist"
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench-out" / "trace"

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 16
RUN_LIMIT_S = 170.0   # a run must end within 180 s
PROBE_LOOPS = 200_000
REF_PROBE_S = 0.012   # the speed probe's time at the reference host speed


class Failure(Exception):
    """The benchmark cannot run here."""


def source_revision() -> dict:
    """Git sha when the checkout is a repository, and a digest of src/."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def speed_probe() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds.

    The speed of a shared host drifts by tens of percent over minutes. Probes
    before and after every process give the factor that scales a pass's
    times to the reference speed; they run in this process, so no change to
    the program can move them.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(results: list) -> float:
    """``REF_PROBE_S`` over the median of the probes taken around the processes."""
    probes = [t for r in results for t in r["probes"]]
    return REF_PROBE_S / statistics.median(probes) if probes else 1.0


def run_process(item: str, deadline: float, option=()) -> dict:
    """Run one item in a fresh interpreter; None in place of a result on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), item, *option]
    before = speed_probe()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {item}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {item}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_call"] - started
    result["probes"] = [before, speed_probe()]
    return result


def check(item: str, result, expected: dict) -> tuple:
    """(attempted, failed) operations of one item against its recorded digests.

    A scenario run is one operation; each call of a library item is one.
    """
    attempted = len(expected) if item.startswith("@") else 1
    if result is None:
        return attempted, attempted
    outputs = result["outputs"]
    bad = set(result["wrong"])
    bad.update(k for k in expected if outputs.get(k) != expected[k])
    bad.update(k for k in outputs if k not in expected)
    return attempted, min(len(bad), attempted)


def run_pass(workload_items: list, digests: dict, deadline: float, trace_tag=None) -> dict:
    """Run every item once; with ``trace_tag``, traced, writing folded stacks."""
    results, attempted, failed = [], 0, 0
    for index, item in enumerate(workload_items):
        option = ()
        if trace_tag is not None:
            slug = "".join(c if c.isalnum() else "_" for c in item)
            option = ("--trace", str(TRACE_DIR / f"{trace_tag}-{index:02d}-{slug}.folded"))
        result = run_process(item, deadline, option)
        a, f = check(item, result, digests.get(item, {}))
        attempted += a
        failed += f
        results.append(result)
    ok = [r for r in results if r is not None]
    speed = speed_factor(ok)
    for r in ok:
        r["setup_s"] *= speed
    return {
        "results": results,
        "attempted": attempted,
        "failed": failed,
        "speed": speed,
        "raw_wall_s": sum(r["wall_s"] for r in ok),
        "wall_s": speed * sum(r["wall_s"] for r in ok),
        "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024 if ok else None,
    }


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass: sums over its processes."""
    ok = [r for r in p["results"] if r is not None]
    out = {}
    for r in ok:
        for name, value in r["layers"].items():
            if name.endswith("_s"):
                value *= p["speed"]
            if name.endswith("max_cells"):
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    searching = [r for r in ok if r["subsets"]]
    subsets = sum(r["subsets"] for r in searching)
    rref_calls = sum(r["layers"]["linalg.rref.calls"] for r in searching)
    out["linalg.rref.calls_per_subset"] = rref_calls / subsets if subsets else 0.0
    return out


def same_outputs(a: dict, b: dict) -> bool:
    return all(x is not None and y is not None and x["outputs"] == y["outputs"]
               for x, y in zip(a["results"], b["results"]))


PER_LAYER_UNITS = {"calls": "count", "cells": "count", "max_cells": "count",
                   "unknown": "count", "self_s": "s", "overhead_s": "s",
                   "calls_per_subset": "calls/subset"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kronbrist benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        raise Failure(f"no kronbrist sources under {SRC.parent}; run from a source checkout")
    if not DIGESTS.is_file():
        raise Failure(f"missing {DIGESTS}")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    workload_items = items(args.workload, args.seed)
    missing = [item for item in workload_items if item not in digests]
    if missing:
        raise Failure(f"no recorded digests for {missing}")

    # One CPU for this process and every process it starts: the speed probes
    # then time the CPU the work ran on.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # compile bytecode and warm the file cache: users pay neither on every call
    if run_process("@import", deadline) is None:
        raise Failure("kronbrist does not import")
    untraced, traced = [], []
    min_passes = 1 if args.trace else MIN_PASSES
    while True:
        pass_start = time.monotonic()
        untraced.append(run_pass(workload_items, digests, deadline))
        if args.trace:
            traced.append(run_pass(workload_items, digests, deadline,
                                   f"{args.workload}-{len(traced)}"))
        now = time.monotonic()
        # start another pass only if it should end within --seconds
        next_end = now + (now - pass_start)
        if len(untraced) >= min_passes and next_end - start > args.seconds:
            break
        if next_end > deadline:
            break

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    traced_identical = all(same_outputs(u, t) for u, t in zip(untraced, traced))
    correct = failed == 0 and traced_identical

    processes = [r for p in passes for r in p["results"] if r]
    # set up more times, without running, where a run has few processes
    while not args.trace and len(processes) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
        item = workload_items[len(processes) % len(workload_items)]
        extra = run_process(item, deadline, ("--setup-only",))
        if extra is None:
            break
        extra["setup_s"] *= speed_factor([extra])
        processes.append(extra)

    samples = {}
    if args.trace:
        per_pass = [layer_metrics(t) for t in traced if t["failed"] == 0]
        for name in sorted(per_pass[0] if per_pass else {}):
            samples[name] = [m[name] for m in per_pass]
        walls = [p["wall_s"] for p in untraced]
        traced_walls = [p["wall_s"] for p in traced]
        samples["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(walls)]
        units = {name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in samples}
    else:
        samples["wall_s"] = [p["wall_s"] for p in untraced]
        samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in untraced if p["peak_rss_mb"]]
        samples["setup_s"] = [r["setup_s"] for r in processes]
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    samples = {k: v for k, v in samples.items() if v}

    numpy_version = next((r["numpy"] for r in processes if "numpy" in r), None)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": scenario_seed(args.seed),
        "seed_space": SEED_SPACE,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "traced_identical": traced_identical if traced else None,
        "processes_per_pass": len(workload_items),
        "failed_ratio": failed / attempted if attempted else None,
        "samples": {k: len(v) for k, v in samples.items()},
        "values": samples,
        "speed_factor": [p["speed"] for p in passes],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "cpu": cpu,
        "cpu_model": cpu_model(),
        **source_revision(),
    }
    print("perfbench-meta: " + json.dumps(meta, sort_keys=True))
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
