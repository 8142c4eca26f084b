"""Tables of floats written as ``"%.5f"`` writes them, on arrays.

``decimal_lines`` writes each row of a float table as one line: a head,
then every float after its separator, then a tail.  It does one gather per
digit table instead of one format per float.  A line is one row of bytes.
Each float is a cell of ``CELL`` bytes: its integer part right-aligned in 4
bytes and padded with zero bytes, then "." and the first 3 decimals, then
the last 2 (``decimal_tables``).  Each separator is a cell padded the same
way, and one mask drops the padding.

Python prints floats correctly rounded, so "%.5f" prints x as the integer
k nearest to x * 10**5, written k // 10**5 "." k % 10**5.  For
0 <= x < 10**4, the float product t = x * 10**5 is at most 10**9 < 2**30,
within 6e-8 of the exact product.  So where |t - rint(t)| < 0.5 - 1e-6,
k = rint(t) (``write_decimals``).  Every other float, a near-tie, takes its
k from "%.5f" itself.  A float that is negative (-0.0 included), not
finite, or that rounds to 10**4 or more has no cell: ValueError.  The
module imports nothing from the package.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CELL", "decimal_tables", "write_decimals", "decimal_lines"]

CELL = 10


def decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The byte cells of ``write_decimals``, each a fixed-width void item:
    the integer parts 0..9999 in 4 bytes, right-aligned and padded with
    zero bytes; "." and 3 digits for 0..999; 2 digits for 0..99."""
    def digits(width: int) -> np.ndarray:
        grid = np.indices((10,) * width, dtype=np.uint8) + np.uint8(ord("0"))
        return grid.reshape(width, -1).T.copy()

    ints = digits(4)
    for j in range(3):
        ints[:10 ** (3 - j), j] = 0  # leading zeros; 0 is "0"
    frac3 = np.full((1000, 4), ord("."), dtype=np.uint8)
    frac3[:, 1:] = digits(3)
    return ints.view("V4")[:, 0], frac3.view("V4")[:, 0], digits(2).view("V2")[:, 0]


def write_decimals(x: np.ndarray, cells: np.ndarray,
                   tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write each float of ``x`` into its ``CELL`` bytes of ``cells`` (shape
    ``x.shape + (CELL,)``, each cell contiguous) as "%.5f" writes it, with
    leading zero bytes, by gathers from the ``decimal_tables``; the
    rounding rule and the range are in the module docstring."""
    if not np.all(~np.signbit(x) & (x < 1e4)):
        raise ValueError("value outside [0, 10000)")
    t = x * 1e5
    k = np.rint(t)
    for i in np.flatnonzero(np.abs(t - k) >= 0.5 - 1e-6).tolist():
        k.flat[i] = int(f"{x.flat[i]:.5f}".replace(".", ""))
    if np.any(k >= 1e9):
        raise ValueError("value rounds to 10000 or more")
    whole, frac = np.divmod(k.astype(np.int32), 100000)
    ints, frac3, frac2 = tables
    cells[..., :4].view("V4")[..., 0] = ints[whole]
    cells[..., 4:8].view("V4")[..., 0] = frac3[frac // 100]
    cells[..., 8:].view("V2")[..., 0] = frac2[frac % 100]


def decimal_lines(x: np.ndarray, head: str, seps: list[str], tail: str,
                  tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
    """One line per row of the (R, C) floats ``x``: ``head``, then float j
    after ``seps[j]``, then ``tail``, with no newline after the last line.
    The strings hold no zero byte.

    Every row is a copy of one template row, whose float cells
    ``write_decimals`` then fills; the zero bytes are dropped at the end.
    """
    if not len(x):
        return ""
    start, end = head.encode(), (tail + "\n").encode()
    width = max(len(sep) for sep in seps)
    padded = b"".join(sep.encode().rjust(width, b"\0") for sep in seps)
    template = np.zeros(len(start) + len(seps) * (width + CELL) + len(end), dtype=np.uint8)
    template[:len(start)] = np.frombuffer(start, dtype=np.uint8)
    template[-len(end):] = np.frombuffer(end, dtype=np.uint8)
    template[len(start):-len(end)].reshape(len(seps), -1)[:, :width] = (
        np.frombuffer(padded, dtype=np.uint8).reshape(len(seps), width))
    rows = np.tile(template, (len(x), 1))
    cells = rows[:, len(start):-len(end)].reshape(len(x), len(seps), -1)
    write_decimals(x, cells[..., width:], tables)
    rows[-1, -1] = 0  # the newline after the last line
    return rows[rows != 0].tobytes().decode()
