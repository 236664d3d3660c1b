"""The checker's data hold no reference cycles.

This is the premise of `cli.main`'s pause of the cyclic garbage
collector: with the collector off, reference counting alone must free
what a check builds, so a later `gc.collect()` finds nothing of it.
"""

from __future__ import annotations

import gc

import pytest

from oneplane import cli, graphio
from oneplane.audit import audit
from oneplane.cli import main
from oneplane.discharging import apply_discharging, ledger_lines
from oneplane.generators import GeneratorParams, catalog, catalog_names, random_oneplane
from oneplane.lightedge import check_light_edge_guarantee
from oneplane.oneplanar import build_drawing, recover_original, validate
from test_discharging import wheel

LARGE = GeneratorParams(seed=3, size=150, crossing_density=0.5)


@pytest.fixture()
def gc_paused():
    """The collector off, with no garbage left from earlier work; the
    caller's setting is restored afterwards. The CLI's parser is built
    first: the process builds it once, and argparse's help formatters
    leave cycles behind."""
    cli._build_parser()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _check(text: str) -> None:
    """Every library stage of a check on one drawing's file text; the
    results are dropped on return."""
    g = graphio.loads(text)
    assert validate(g).ok
    recover_original(g).min_degree()
    check_light_edge_guarantee(g)
    final, transfers = apply_discharging(g)
    ledger_lines(transfers)
    assert audit(g, final, transfers).passed


def _texts() -> dict[str, str]:
    drawings = {f"catalog:{name}": catalog(name) for name in catalog_names()}
    for seed, size, density in ((1, 20, 0.0), (2, 41, 0.75), (3, 150, 0.5), (4, 59, 1.0)):
        p = GeneratorParams(seed=seed, size=size, crossing_density=density)
        drawings[f"gen:{seed}"] = random_oneplane(p)
    drawings["wheel:300"] = build_drawing(wheel(300))
    return {name: graphio.dumps(g) for name, g in drawings.items()}


def test_library_stages_leave_no_cyclic_garbage(gc_paused):
    texts = _texts()
    gc.collect()
    for name, text in texts.items():
        _check(text)
        assert gc.collect() == 0, name


def _garbage(argv: list[str], capsys) -> int:
    """Objects the collector finds after one `main(argv)` call made with
    it off."""
    gc.collect()
    main(argv)
    capsys.readouterr()
    return gc.collect()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["validate", "recover", "light-edges", "discharge", "audit"])
def test_cli_garbage_does_not_grow_with_the_drawing(command, fmt, tmp_path, capsys, gc_paused):
    counts = []
    for g in (catalog("k4"), random_oneplane(LARGE)):
        path = tmp_path / "in.json"
        graphio.save(g, path)
        argv = [command, str(path), "--format", fmt]
        if command == "discharge":
            argv += ["--ledger", str(tmp_path / "out.ledger")]
        counts.append(_garbage(argv, capsys))
    assert counts[0] == counts[1]


def test_generator_garbage_does_not_grow_with_the_drawing(tmp_path, capsys, gc_paused):
    out = str(tmp_path / "g.json")
    counts = [
        _garbage(["gen", "--seed", "3", "--size", str(size), "--out", out], capsys)
        for size in (4, LARGE.size)
    ]
    counts += [_garbage(["catalog", name, "--out", out], capsys) for name in ("k4", "icosahedron")]
    assert counts == [counts[0]] * 4
