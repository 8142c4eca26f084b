"""The checked-in BENCH_pipeline.json has the shape its script writes.

The script's constants are imported, not copied, so a change of PAIRS,
STAGES, REPEATS, COSET_MAX_N or kernels.CHUNK_DARTS without a re-recorded
file fails here.  Orders come from the index formula; no group is built.
"""

import importlib.util
import json
from pathlib import Path

from hfmap import kernels
from hfmap.group import HeckeParams, principal_congruence_index

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pipeline", ROOT / "benchmarks" / "bench_pipeline.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

REPORT = json.loads((ROOT / "BENCH_pipeline.json").read_text(encoding="utf-8"))


def test_one_row_per_pair_in_order():
    assert [(row["q"], row["n"]) for row in REPORT["rows"]] == bench.PAIRS


def test_orders_are_the_index_formula():
    for row in REPORT["rows"]:
        assert row["order"] == principal_congruence_index(HeckeParams(row["q"], row["n"]))


def test_settings_are_the_scripts():
    assert REPORT["chunk_darts"] == kernels.CHUNK_DARTS
    assert REPORT["repeats"] == bench.REPEATS


def test_every_row_has_every_stage():
    for row in REPORT["rows"]:
        assert list(row["wall_s"]) == [*bench.STAGES, "total"]
        assert list(row["kept_b_per_el"]) == list(bench.STAGES)
        assert list(row["peak_b_per_el"]) == list(bench.STAGES)


def test_coset_figure_exactly_on_the_ci_rows():
    for row in REPORT["rows"]:
        assert ("coset" in row) == (row["n"] <= bench.COSET_MAX_N)
