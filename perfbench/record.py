#!/usr/bin/env python3
"""Record the digest of every operation's output into expected.json.

    python3 perfbench/record.py

Run from the root of a checkout at the commit whose outputs are the
reference.  An operation that fails its checks gets no digest and is listed
under known_failures with its message; run.py reports it as failed, and
marks the run incorrect unless the failure's message is the recorded one.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, BenchError, describe, import_program


def main() -> int:
    import_program()
    from hfmap import group

    import workloads

    digests: dict[str, str | None] = {}
    known: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0):
            group.cached_group.cache_clear()
            try:
                digests[op.key] = workloads.digest(op.check(op.run()).text)
            except Exception as exc:  # recorded as a known failure
                digests[op.key] = None
                known[op.key] = describe(exc)
                print(f"known failure: {op.key}: {known[op.key]}", file=sys.stderr)
    payload = {"digests": dict(sorted(digests.items())),
               "known_failures": dict(sorted(known.items()))}
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n",
                                        encoding="utf-8")
    print(f"{len(digests)} operations, {len(known)} known failures")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
