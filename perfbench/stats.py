#!/usr/bin/env python3
"""Summarize benchmark records: median and quartile spread per metric.

    python3 perfbench/stats.py [RESULTS.jsonl] [--base BASE.jsonl]

Reads the records run.py appends to .bench_out/results.jsonl and prints, for
each workload and trace mode, every metric's median and its spread: the
distance between the first and third quartiles as a share of the median.
With --base, each median is also compared with the base file's.  Records
whose environment (closure backend, Python, numpy, CPU count) differs within
a group or from the base are flagged, since their times are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def envs(records: list[dict]) -> set[str]:
    return {json.dumps({k: v for k, v in r["env"].items() if k != "machine"},
                       sort_keys=True) for r in records}


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", default=".bench_out/results.jsonl")
    parser.add_argument("--base", help="results of the commit to compare against")
    args = parser.parse_args()

    groups = load(Path(args.results))
    base = load(Path(args.base)) if args.base else {}
    for (workload, trace), records in sorted(groups.items()):
        print(f"{workload} trace={trace}: {len(records)} runs, "
              f"seeds {sorted(r['seed'] for r in records)}")
        flags = envs(records) | envs(base.get((workload, trace), []))
        if len(flags) > 1:
            print("  WARNING: runs differ in environment; times are not comparable:")
            for env in sorted(flags):
                print(f"    {env}")
        failed = sorted({k for r in records for k in r["unexpected_failures"]})
        if failed:
            print(f"  UNEXPECTED FAILURES: {failed}")
        names = [k for k, v in records[0]["values"].items() if isinstance(v, (int, float))]
        for name in names:
            med, sp = spread([r["values"][name] for r in records])
            line = f"  {name:45s} median {med:<14.6g} spread {sp:7.2%}"
            if (workload, trace) in base:
                b_med, _ = spread([r["values"][name] for r in base[(workload, trace)]])
                if b_med:
                    line += f"   base {b_med:<12.6g} change {med / b_med - 1:+7.2%}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
