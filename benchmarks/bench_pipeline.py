#!/usr/bin/env python3
"""The stages of ``hfmap map``, timed and measured one by one, written to
BENCH_pipeline.json.

    python benchmarks/bench_pipeline.py [--max-n 101] [--out PATH]

For each (q, n) of ``PAIRS`` (those with n <= --max-n) the stages of
``cli.cmd_map`` run in process, in its order:

- group: ``enumerate_group``;
- map: ``build_algebraic_map``, with the alpha checks of ``MapStructure``;
- invariants: ``MapStructure.invariants``;
- cert: ``projection_certificate``.

It records per stage the median wall time of ``REPEATS`` untraced runs,
and, from one run under ``tracemalloc`` (numpy reports its buffers to it),
the bytes kept after the stage and the peak during it, per group element.
A child ``python -m hfmap.cli map --q Q --n N --json`` gives the peak RSS
of the command itself.

The rows with n <= ``COSET_MAX_N``, the rows CI runs, also hold a
``coset`` figure: ``polygon.coset_domain_check`` on the row's group, whose
map is already built, as the median wall time of ``REPEATS`` runs and the
traced peak of one more per group element.  It is not a stage of ``map``,
which never glues the coset domain; it is the one Euler characteristic
that shares nothing with orbit counting.  The program is imported from the ``src/`` of the
checkout that holds this script.  The run fails, with exit code 1 and
nothing written, when a group's order differs from
``principal_congruence_index``, a certificate fails, the coset domain's
Euler characteristic differs from the map's or the child's answer differs
from the in-process one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from hfmap import kernels  # noqa: E402
from hfmap.group import HeckeParams, enumerate_group, principal_congruence_index  # noqa: E402
from hfmap.maps import build_algebraic_map, invariants_json, projection_certificate  # noqa: E402
from hfmap.polygon import coset_domain_check  # noqa: E402

# q = 4 across the modulus range, the paper's q, plus q = 3 and q = 6 at
# an odd and an even modulus and at the largest map of each size.
PAIRS = [(4, 29), (4, 53), (4, 101), (4, 151), (4, 233), (3, 97), (6, 90), (6, 233)]
STAGES = ("group", "map", "invariants", "cert")
REPEATS = 3
COSET_MAX_N = 101  # the rows of the CI step, --max-n 101


def run_stages(p: HeckeParams, between=lambda stage: None):
    """Run the stages of ``cmd_map`` once, calling between(stage) before
    each and once more at the end with None; returns the group, the map's
    invariants and the certificate."""
    between("group")
    group = enumerate_group(p)
    between("map")
    amap = build_algebraic_map(group)
    between("invariants")
    inv = amap.invariants()
    between("cert")
    rep = projection_certificate(group, amap)
    between(None)
    return group, inv, rep


def wall_times(p: HeckeParams) -> dict[str, float]:
    """Median over REPEATS untraced runs of each stage's wall time, in s."""
    runs = []
    for _ in range(REPEATS):
        marks = []
        run_stages(p, lambda stage: marks.append(perf_counter()))
        runs.append(np.diff(marks))
    times = dict(zip(STAGES, np.median(runs, axis=0).tolist()))
    times["total"] = float(np.median(np.sum(runs, axis=1)))
    return {k: round(v, 4) for k, v in times.items()}


def traced_bytes(p: HeckeParams, order: int) -> tuple[dict, dict]:
    """Traced bytes per element kept after each stage and peaking in it."""
    kept, peak = {}, {}
    current = None

    def between(stage):
        nonlocal current
        now, top = tracemalloc.get_traced_memory()
        if current is not None:
            kept[current] = round((now - base) / order, 1)
            peak[current] = round((top - base) / order, 1)
        tracemalloc.reset_peak()
        current = stage

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_stages(p, between)
    finally:
        tracemalloc.stop()
    return kept, peak


def coset_figure(p: HeckeParams) -> dict:
    """Median wall time of REPEATS runs of coset_domain_check, in s, and
    the traced peak of one more per group element, on one group whose map
    the first, untimed run builds."""
    group = enumerate_group(p)
    if not coset_domain_check(group).matches_map:
        raise RuntimeError(f"(q, n) = ({p.q}, {p.n}): the coset domain's chi is not the map's")
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        coset_domain_check(group)
        times.append(perf_counter() - start)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        coset_domain_check(group)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"wall_s": round(float(np.median(times)), 4),
            "peak_b_per_el": round(peak / group.order, 1)}


def child_map(p: HeckeParams) -> tuple[str, float, float]:
    """stdout, wall time in s and peak RSS in MB of ``hfmap map --json``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hfmap.cli", "map", "--q", str(p.q), "--n", str(p.n), "--json"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives the rusage of this child alone.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"hfmap map --q {p.q} --n {p.n} exited {proc.returncode}")
    return out.strip(), round(wall, 3), round(usage.ru_maxrss / 1024, 1)


def measure(q: int, n: int, child: tuple[str, float, float]) -> dict:
    """The row of (q, n), given the stdout, wall time and peak RSS of its
    ``hfmap map --json``."""
    p = HeckeParams(q, n)
    index = principal_congruence_index(p)
    # One untimed run first, so that imports and lazy set-up are done.
    group, inv, rep = run_stages(p)
    order = group.order
    if order != index:
        raise RuntimeError(f"(q, n) = ({q}, {n}): order {order}, index formula {index}")
    if not rep.ok:
        raise RuntimeError(f"(q, n) = ({q}, {n}): certificate failed: {rep.problems}")
    want = invariants_json(p, inv, order)
    del group, inv, rep
    wall = wall_times(p)
    kept, peak = traced_bytes(p, order)
    out, child_wall, rss = child
    if out != want:
        raise RuntimeError(f"(q, n) = ({q}, {n}): the CLI printed {out}, in process {want}")
    row = {
        "q": q, "n": n, "order": order,
        "wall_s": wall,
        "kept_b_per_el": kept,
        "peak_b_per_el": peak,
        "cli_wall_s": child_wall,
        "cli_peak_rss_mb": rss,
    }
    if n <= COSET_MAX_N:
        row["coset"] = coset_figure(p)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=kernels.MAX_MODULUS,
                        help="run only the pairs with n at most this")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    args = parser.parse_args(argv)
    pairs = [(q, n) for q, n in PAIRS if n <= args.max_n]
    rows = []
    try:
        # The children run first, while this process holds no more than the
        # CLI's own imports: the peak RSS a child reports starts from that
        # of the process it was forked from.
        children = [child_map(HeckeParams(q, n)) for q, n in pairs]
        for (q, n), child in zip(pairs, children):
            row = measure(q, n, child)
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
        },
        "chunk_darts": kernels.CHUNK_DARTS,
        "repeats": REPEATS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
