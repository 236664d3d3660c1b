"""Linear work as exact counts: the Python lines each stage executes in
`oneplane` grow as V + E does.

Timings on a shared host cannot tell n from n^1.3; line counts are
exact. Each stage of a check (loads, validate, recover, light-edges,
discharge, `ledger_lines`, audit, dumps) runs once under `sys.settrace`
on a freshly loaded drawing at two sizes of one family, and the ratio
of its counts must be within 10% of the ratio of V + E. Ratios, not
absolute counts, are asserted, because line events differ between
Python versions. Work done inside C calls (sorts, `json`, set and dict
growth) is not counted.
"""

from __future__ import annotations

import os
import sys

import pytest

import oneplane
from oneplane import graphio
from oneplane.audit import audit
from oneplane.discharging import apply_discharging, ledger_lines
from oneplane.generators import GeneratorParams, random_oneplane
from oneplane.lightedge import check_light_edge_guarantee
from oneplane.oneplanar import build_drawing, recover_original, validate

PACKAGE = os.path.dirname(oneplane.__file__) + os.sep


def _count_lines(fn, *args):
    """The result of `fn(*args)` and the number of line events it ran in
    the package's source files."""
    count = 0
    ours: dict[object, bool] = {}

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(PACKAGE)
        return local if mine else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count


def stage_counts(g) -> tuple[int, dict[str, int]]:
    """V + E of a fresh load of `g`, and the lines each stage runs on it."""
    text = graphio.dumps(g)
    counts = {}
    h, counts["loads"] = _count_lines(graphio.loads, text)
    _, counts["validate"] = _count_lines(validate, h)
    _, counts["recover"] = _count_lines(recover_original, h)
    _, counts["light-edges"] = _count_lines(check_light_edge_guarantee, h)
    (final, transfers), counts["discharge"] = _count_lines(apply_discharging, h)
    _, counts["ledger_lines"] = _count_lines(ledger_lines, transfers)
    _, counts["audit"] = _count_lines(audit, h, final, transfers)
    _, counts["dumps"] = _count_lines(graphio.dumps, h)
    return h.embedding.vertex_count() + h.embedding.edge_count(), counts


def wheel(spokes: int):
    """Wheel with hub 0 and rim 1..spokes, no crossings."""
    rotation = {0: tuple(range(1, spokes + 1))}
    for i in range(1, spokes + 1):
        rotation[i] = (0, (i - 2) % spokes + 1, i % spokes + 1)
    return build_drawing(rotation, frozenset())


def quad_fill(size: int):
    return random_oneplane(GeneratorParams(seed=0, size=size, crossing_density=0.75))


@pytest.mark.parametrize(
    "family, small, large, constant",
    [
        (quad_fill, 250, 1000, ()),
        # no crossings: validate reads only the (empty) crossing segments
        (wheel, 1500, 6000, ("validate",)),
    ],
    ids=["quad-fill", "wheel"],
)
def test_every_stage_runs_linear_python_work(family, small, large, constant):
    size_a, counts_a = stage_counts(family(small))
    size_b, counts_b = stage_counts(family(large))
    scale = size_b / size_a
    assert 3.5 < scale < 4.5
    for stage, a in counts_a.items():
        b = counts_b[stage]
        assert a > 0, stage
        if stage in constant:
            assert b == a, stage
        else:
            assert 0.9 <= (b / a) / scale <= 1.1, (stage, a, b, scale)
