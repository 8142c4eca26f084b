"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the same pass can take from 0.6x to 1.5x its usual time,
and the slow spells last tens of seconds.  Runs therefore interleave units
of this fixed work with the timed operations and report times scaled to the
speed at which one unit takes UNIT_REF_S:

    calibrated time = measured time * UNIT_REF_S / median unit time

The unit mixes the kinds of work hfmap does: string formatting, recursion
over small Python objects and numpy passes over arrays.  Of the mixes tried
on a shared host, this one tracked the slow spells of both the map and the
circuit-search operations best.  It does not touch hfmap, so a change to the
program leaves it as it is.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

UNIT_REF_S = 0.02
# Units run before the first timed operation of a pass and after each one.
# The count is fixed per workload, so the sample does not depend on how long
# the program's operations take; at the reference code it comes to 10-17%
# of a pass.
UNITS_PER_STEP = {"map-odd": 15, "map-even": 10, "sweep": 1, "bring-search": 8}
# Units run after each set-up probe.
SETUP_UNITS = 3

_PERM = np.random.default_rng(12345).permutation(1 << 15)


def _tree(depth: int, path: list[int]) -> int:
    if depth == 0:
        return 1
    return sum(_tree(depth - 1, path + [depth]) for _ in range(3))


def unit() -> float:
    """Run one unit of fixed work; return its duration in seconds."""
    t0 = perf_counter()
    # Python: float formatting and string joins, as in the SVG and text output.
    ",".join([f"{i * 0.37:.3f} {i / 7:.3f}" for i in range(6000)])
    # Python: recursion over short lists, as in the circuit search.
    _tree(8, [])
    # numpy: a permutation gather, a stable argsort and a binary search.
    b = _PERM[_PERM]
    np.searchsorted(np.argsort(b, kind="stable"), b)
    return perf_counter() - t0

