#!/usr/bin/env python3
"""hfmap benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload map-odd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up time is the median of several fresh interpreters that each start and
import ``hfmap.cli``.  The run then makes passes over the workload's
operations, each pass in a fresh worker process (worker.py) and one at a
time, until another pass would overrun ``--seconds``; it reports medians
over passes.  Every answer is checked (see workloads.py): a wrong answer
counts as a failed operation, never as a fast one.  With ``--trace 1``
untraced and traced passes alternate: the traced pass with the median wall
time gives the per-layer numbers, and the difference of the two medians is
the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units come from BENCHMARK.json.
Each run appends a record to .bench_out/results.jsonl, and a traced run
writes its spans to .bench_out/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from worker import HERE, SRC, BenchError, import_program, load_expected

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import hfmap.cli; "
         "print('ready', flush=True)")
WORKER_TIMEOUT_S = 150
SUMMARY_UNITS = {
    "setup_s": "s", "wall_s": "s", "raw_setup_s": "s", "raw_wall_s": "s",
    "setup_slowdown": "x", "run_slowdown": "x", "darts_per_s": "1/s",
    "circuits_per_s": "1/s", "peak_rss_mb": "MB", "ops_failed": "count",
    "ops_total": "count",
}


def slowdown(unit_s: list[float]) -> float:
    """Median calibration-unit time over the reference; above 1 is slower.

    The median, not the mean: a burst of slowness during a few units
    must not rescale a whole pass.
    """
    return statistics.median(unit_s) / calibrate.UNIT_REF_S


def probe_setup() -> float:
    """Seconds from launching an interpreter until ``import hfmap.cli`` is done."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_worker(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy
    from hfmap import kernels

    return {
        "backend": kernels.resolve_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def load_names(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: no BLAS pool in this process or its workers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    names = load_names("per_layer" if args.trace else "end_to_end")
    known = load_expected()["known_failures"]
    env = environment()
    ops = [op.key for op in workloads.build(args.workload, args.seed)]

    probes, cal = [], []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup())
        cal.extend(calibrate.unit() for _ in range(calibrate.SETUP_UNITS))
    setup_slowdown = slowdown(cal)

    untraced: list[dict] = []
    traced: list[dict] = []
    round_s: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        untraced.append(run_worker(args.workload, args.seed, 0))
        if args.trace:
            traced.append(run_worker(args.workload, args.seed, 1))
        round_s.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(round_s) > args.seconds:
            break

    # A failure is known only with the message recorded for it; any other
    # failure, of any operation, makes the run incorrect.
    failures: dict[str, str] = {}
    unknown: set[str] = set()
    for p in untraced + traced:
        failures.update(p["failures"])
        unknown.update(k for k, msg in p["failures"].items() if known.get(k) != msg)
    unexpected = sorted(unknown)
    for p in untraced + traced:
        p["slowdown"] = slowdown(p["cal_s"])
        p["cal_wall_s"] = p["wall_s"] / p["slowdown"]
    wall_s = statistics.median(p["cal_wall_s"] for p in untraced)
    values = {
        "setup_s": statistics.median(probes) / setup_slowdown,
        "wall_s": wall_s,
        "raw_setup_s": statistics.median(probes),
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_slowdown": setup_slowdown,
        "run_slowdown": statistics.median(p["slowdown"] for p in untraced),
        "darts_per_s": untraced[0]["darts"] / wall_s,
        "circuits_per_s": untraced[0]["circuits"] / wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "ops_failed": len(failures),
        "ops_total": len(ops),
    }
    if traced:
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        values.update(chosen["layers"])
        values["trace.wall_s"] = chosen["wall_s"]
        values["trace.overhead_s"] = chosen["cal_wall_s"] - statistics.median_low(
            p["cal_wall_s"] for p in untraced)

    metrics = {}
    for name, unit in names:
        if name not in values:
            raise BenchError(f"BENCHMARK.json names metric {name!r}, which this run lacks")
        metrics[name] = {"value": values[name], "unit": unit}

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)} "
          f"traced_passes={len(traced)}")
    for key, unit in SUMMARY_UNITS.items():
        print(f"  {key:15s} {values[key]} {unit}")
    for key, msg in sorted(failures.items()):
        tag = "UNEXPECTED" if key in unexpected else "known defect"
        print(f"  FAILED [{tag}] {key}: {msg}")
    if traced:
        self_s = {k: v for k, v in chosen["layers"].items() if k.endswith(".self_s")}
        print(f"  traced wall_s {chosen['wall_s']:.6f}, "
              f"sum of self_s {sum(self_s.values()):.6f}")
        for key in sorted(self_s, key=lambda k: -self_s[k]):
            if self_s[key]:
                print(f"    {key:45s} {self_s[key]:.4f}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "ops": ops, "values": values,
        "failures": failures, "unexpected_failures": unexpected,
        "setup_probes_s": probes,
        "passes": [{k: p[k] for k in ("wall_s", "slowdown", "peak_rss_mb", "op_s")}
                   for p in untraced],
        "traced_passes": [{k: p[k] for k in ("wall_s", "slowdown", "op_s")} for p in traced],
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if traced:
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "counts"],
             "passes": [p["spans"] for p in traced]},
            separators=(",", ":")), encoding="utf-8")

    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
