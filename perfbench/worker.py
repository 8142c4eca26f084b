#!/usr/bin/env python3
"""One pass over a workload, in a fresh process, printed as one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

run.py starts one worker per pass, so that each pass starts cold, as every
hfmap command a user runs does: empty memo, fresh heap, fresh allocator.
With TRACE = 1 the public hfmap functions are wrapped (see tracing.py) and
the pass's spans are part of the output.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path.cwd() / "src"
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PassResult:
    wall_s: float = 0.0
    darts: int = 0
    circuits: int = 0
    peak_rss_mb: float = 0.0
    cal_s: list[float] = field(default_factory=list)  # calibration unit times
    op_s: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def import_program() -> None:
    """Import hfmap from the checkout's src/, and nowhere else."""
    if not (SRC / "hfmap" / "cli.py").is_file():
        raise BenchError(f"no hfmap sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hfmap

    if Path(hfmap.__file__).resolve().parent != (SRC / "hfmap").resolve():
        raise BenchError(f"imported hfmap from {hfmap.__file__}, not from {SRC}")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def describe(exc: Exception) -> str:
    """A failure's message, as run.py compares it with expected.json."""
    return f"{type(exc).__name__}: {exc}"


def check_op(op, result, digests: dict):
    """Check one operation's result; return its Checked, or raise."""
    from workloads import WrongAnswer, digest

    checked = op.check(result)
    want = digests.get(op.key, "missing")
    if want == "missing":
        raise WrongAnswer("no digest recorded for this operation")
    if want is not None and digest(checked.text) != want:
        raise WrongAnswer("output differs from the recorded digest")
    return checked


def run_pass(ops, digests: dict, cal_units: int, tracer=None) -> PassResult:
    """Time each operation and check its answer outside the timed region.
    cal_units calibration units (see calibrate.py) run before the first
    operation and after each one, once its result is freed."""
    import calibrate
    from hfmap import group
    from tracing import ROOT_SPAN

    res = PassResult()
    res.cal_s = [calibrate.unit() for _ in range(cal_units)]
    for op in ops:
        # Each operation stands for one CLI invocation: no memoized groups.
        group.cached_group.cache_clear()
        gc.collect()
        error = None
        result = None
        root = len(tracer.spans) if tracer is not None else -1
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.call(ROOT_SPAN, op.run)
        except Exception as exc:  # an exception is a failed operation
            error = describe(exc)
        dt = perf_counter() - t0
        if tracer is not None:
            # Time the op by its root span, so layer self times sum to wall_s.
            _, start, end, _, _ = tracer.spans[root]
            dt = end - start
        res.op_s[op.key] = dt
        res.wall_s += dt
        if error is None:
            try:
                checked = check_op(op, result, digests)
                res.darts += checked.darts
                res.circuits += checked.circuits
            except Exception as exc:  # a wrong or unreadable answer
                error = describe(exc)
        if error is not None:
            res.failures[op.key] = error
        del result
        gc.collect()
        res.cal_s.extend(calibrate.unit() for _ in range(cal_units))
    return res


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import_program()
    import calibrate
    import tracing
    import workloads

    ops = workloads.build(workload, seed)
    digests = load_expected()["digests"]
    cal_units = calibrate.UNITS_PER_STEP[workload]
    if trace:
        tracer = tracing.Tracer()
        patched = tracing.install(tracer)
        try:
            res = run_pass(ops, digests, cal_units, tracer)
        finally:
            tracing.uninstall(patched)
        res.layers = tracing.per_layer(tracer.spans)
        res.spans = tracer.spans
    else:
        res = run_pass(ops, digests, cal_units)
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(vars(res), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
