"""CLI commands, report formats, and the exit-code contract."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from gadgets import crossing_gadget, squeezed_gadget
import oneplane
from oneplane import cli, graphio
from oneplane.audit import audit
from oneplane.cli import main
from oneplane.discharging import transitive_corners
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    catalog,
    catalog_names,
    random_oneplane,
)
from oneplane.lightedge import BOUNDS, check_light_edge_guarantee
from oneplane.oneplanar import build_drawing, validate
from test_acceptance import R6_SAMPLES
from test_audit import _gadget_drawings, tampered_run


@pytest.fixture()
def k5_file(tmp_path):
    path = tmp_path / "k5.json"
    graphio.save(catalog("k5-one-crossing"), path)
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    # adjacent false vertices on a path
    g = build_drawing({0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}, {1, 2})
    path = tmp_path / "broken.json"
    graphio.save(g, path)
    return str(path)


def test_discharge_reports_conserved_sums(k5_file, capsys):
    assert main(["discharge", k5_file]) == 0
    out = capsys.readouterr().out
    assert "initial_total: -8" in out
    assert "final_total: -8" in out
    assert "conserved: True" in out


def test_discharge_writes_ledger(k5_file, tmp_path, capsys):
    ledger = tmp_path / "k5.ledger"
    assert main(["discharge", k5_file, "--ledger", str(ledger)]) == 0
    lines = ledger.read_text().splitlines()
    assert lines == sorted(lines) or all(";" in line for line in lines)
    assert any(line.startswith("R1;") for line in lines)


def test_validate_broken_input_exits_one(broken_file, capsys):
    assert main(["validate", broken_file]) == 1
    out = capsys.readouterr().out
    assert "adjacent-false-vertices" in out


def test_validate_clean_input(k5_file, capsys):
    assert main(["validate", k5_file]) == 0
    assert "valid: True" in capsys.readouterr().out


def test_validate_json_on_valid_input_lists_no_diagnostics(k5_file, capsys):
    assert main(["validate", k5_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["violations"] == [] and doc["diagnostics"] == []


def test_validate_reports_segment_into_false_vertex_of_wrong_degree(tmp_path, capsys):
    rot = {0: [1, 2, 3, 4], 1: [0, 4, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 1]}
    path = tmp_path / "wrong-degree.json"
    graphio.save(build_drawing(rot, {0, 1}), path)
    assert main(["validate", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    kinds = {v.split()[0] for v in doc["violations"]}
    assert kinds == {"false-vertex-degree", "adjacent-false-vertices"}


@pytest.mark.parametrize("command", ["recover", "light-edges", "discharge", "audit"])
def test_invalid_input_gets_the_validation_report(command, tmp_path, capsys):
    path = tmp_path / "squeezed.json"
    graphio.save(squeezed_gadget(), path)  # fails with recovered-multi-edge
    assert main(["validate", str(path), "--format", "json"]) == 1
    expected = json.loads(capsys.readouterr().out)
    assert expected["diagnostics"]
    assert main([command, str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {**expected, "command": command}


def test_light_edges_json_lists_ten_t4_witnesses(k5_file, capsys):
    assert main(["light-edges", k5_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "witness-found"
    assert len(doc["light_edges"]) == 10
    assert {w["type"] for w in doc["light_edges"]} == {"T4"}


def test_light_edges_profile_flag_is_a_usage_error(k5_file, capsys):
    assert main(["light-edges", k5_file, "--profile", "thm12"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_hypothesis_unmet_exit_code(tmp_path, capsys):
    g = build_drawing({0: [1], 1: [0, 2], 2: [1]})
    path = tmp_path / "path.json"
    graphio.save(g, path)
    assert main(["light-edges", str(path)]) == 2
    assert "hypothesis-unmet" in capsys.readouterr().out


def _pendant_k4():
    """K4 with a degree-1 vertex 4 hung on vertex 0: its (3,4) edges are
    light, but the hypothesis is unmet."""
    return build_drawing({0: [1, 2, 3, 4], 1: [0, 3, 2], 2: [0, 1, 3], 3: [0, 2, 1], 4: [0]})


# status -> (drawing, bound table); a lowered table reaches the candidate
# status as in test_lightedge.test_lowered_table_gives_candidate
STATUS_CASES = {
    "witness-found": (catalog("k5-one-crossing"), BOUNDS),
    "hypothesis-unmet": (_pendant_k4(), BOUNDS),
    "counterexample-candidate": (catalog("cube-plus-diagonals"), {**BOUNDS, 6: 5}),
}
# a double quote, a backslash, a space and non-ASCII characters
_AWKWARD = 'a "b\\ é€😀'


def _expected_light_edges_json(path: str, verdict) -> str:
    """The light-edges report, rendered by the standard library's encoder."""

    def record(w):
        return {"edge": list(w.edge), "degrees": list(w.degrees), "type": w.light_type}

    report = {
        "command": "light-edges",
        "input": path,
        "profile": "thm12",
        "status": verdict.status,
        "min_degree": verdict.min_degree,
        "witness": record(verdict.witness) if verdict.witness else None,
        "light_edges": [record(w) for w in verdict.light_edges],
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# the light-edges exit code of each status
STATUS_EXIT = {"witness-found": 0, "hypothesis-unmet": 2, "counterexample-candidate": 3}


def _light_edges_json_matches(g, bounds, path, capsys, monkeypatch) -> str:
    graphio.save(g, path)
    monkeypatch.setattr(
        cli, "check_light_edge_guarantee", lambda g: check_light_edge_guarantee(g, bounds)
    )
    code = main(["light-edges", str(path), "--format", "json"])
    out = capsys.readouterr().out
    verdict = check_light_edge_guarantee(g, bounds)
    assert out == _expected_light_edges_json(str(path), verdict)
    assert code == STATUS_EXIT[verdict.status]
    return verdict.status


@pytest.mark.parametrize("status", STATUS_CASES)
@given(st.text(alphabet='x "\\é€😀', max_size=8))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_light_edges_json_equals_json_dumps_for_each_status(
    tmp_path, capsys, monkeypatch, status, name
):
    g, bounds = STATUS_CASES[status]
    path = tmp_path / f"{_AWKWARD}{name}.json"
    assert _light_edges_json_matches(g, bounds, path, capsys, monkeypatch) == status


@given(st.integers(0, 10_000), st.integers(4, 60), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_light_edges_json_equals_json_dumps_on_generated_drawings(
    tmp_path, capsys, monkeypatch, seed, size, density
):
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    _light_edges_json_matches(g, BOUNDS, tmp_path / f"{_AWKWARD}.json", capsys, monkeypatch)


PINNED_REPORTS = Path(__file__).with_name("pinned_reports.txt")


def test_drawing_reports_are_pinned(k5_file, broken_file, tmp_path, capsys, monkeypatch):
    # Every drawing command in both formats, on a valid drawing and on a
    # refused one, with each exit code and the ledger file, against the
    # transcript in pinned_reports.txt. Relative names keep `input` fixed.
    monkeypatch.chdir(tmp_path)
    ledger = tmp_path / "out.ledger"
    transcript = []
    for name in (Path(k5_file).name, Path(broken_file).name):
        for command in ("validate", "recover", "light-edges", "discharge", "audit"):
            for fmt in ("text", "json"):
                argv = [command, name, "--format", fmt]
                if command == "discharge":
                    argv += ["--ledger", ledger.name]
                code = main(argv)
                out, err = capsys.readouterr()
                assert err == ""
                transcript.append(f"=== {' '.join(argv)} -> exit {code}\n{out}")
                if ledger.exists():
                    transcript.append(f"--- {ledger.name}\n{ledger.read_text(encoding='utf-8')}")
                    ledger.unlink()
    assert "".join(transcript) == PINNED_REPORTS.read_text(encoding="utf-8")


PINNED_R6 = Path(__file__).with_name("pinned_r6.json")


def r6_pins(directory: Path, capsys) -> list[dict]:
    """Per drawing of `R6_SAMPLES` and the gadget sweep, where R6 fires:
    the SHA-256 of the `discharge --ledger` file and of the JSON audit
    report, both written by `main` in `directory`, the ledger's R6
    lines, and the transitive corners cut to their first four fields."""
    pins = []
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        graphio.save(g, directory / "drawing.json")
        assert main(["discharge", "drawing.json", "--ledger", "out.ledger"]) == 0
        capsys.readouterr()
        ledger = (directory / "out.ledger").read_bytes()
        assert main(["audit", "drawing.json", "--format", "json"]) == 0
        report = capsys.readouterr().out.encode()
        pins.append({
            "drawing": i,
            "ledger_sha256": hashlib.sha256(ledger).hexdigest(),
            "audit_sha256": hashlib.sha256(report).hexdigest(),
            "r6": [line for line in ledger.decode().splitlines() if line.startswith("R6")],
            "corners": [list(c[:4]) for c in transitive_corners(g)],
        })
    return pins


def test_r6_ledgers_and_audits_are_pinned(tmp_path, capsys, monkeypatch):
    # no catalog drawing or benchmark workload fires R6, so the drawings
    # built to fire it pin its ledger bytes, its audit report and its
    # corners
    monkeypatch.chdir(tmp_path)
    assert r6_pins(tmp_path, capsys) == json.loads(PINNED_R6.read_text(encoding="utf-8"))


def test_audit_command_passes_on_valid_input(k5_file, capsys):
    assert main(["audit", k5_file]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out
    assert "conserved: True" in out


def test_audit_of_a_tampered_ledger_exits_three_and_lists_its_failures(
    tmp_path, capsys, monkeypatch
):
    g = crossing_gadget(24, 24, 3, 3, "triangle")
    path = tmp_path / "gadget.json"
    graphio.save(g, path)
    monkeypatch.setattr(cli, "apply_discharging", tampered_run)
    assert main(["audit", str(path), "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    report = audit(g, *tampered_run(g))
    assert doc["passed"] is False
    assert [(c["name"], c["instances"], tuple(c["failures"])) for c in doc["checks"]] == [
        (c.name, c.instances, c.failures) for c in report.checks
    ]
    assert {c["name"] for c in doc["checks"] if not c["passed"]} > {"conservation"}


def test_recover_reports_degrees(k5_file, capsys):
    assert main(["recover", k5_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 5
    assert doc["min_degree"] == 4
    assert len(doc["edges"]) == 10


def test_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "5", "--size", "14", "--density", "0.5", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "5", "--size", "14", "--density", "0.5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_unsatisfiable_parameters(capsys):
    assert main(["gen", "--seed", "1", "--size", "4", "--density", "1.0"]) == 1
    assert "generation failed" in capsys.readouterr().err
    # a density outside [0, 1] is refused before any drawing is grown
    assert main(["gen", "--seed", "1", "--size", "12", "--density", "1.5"]) == 1
    assert "generation failed: crossing density" in capsys.readouterr().err


def test_catalog_round_trips_through_cli(tmp_path, capsys):
    out = tmp_path / "cube.json"
    assert main(["catalog", "cube", "--out", str(out)]) == 0
    assert graphio.load(out).embedding.vertex_count() == 8
    assert main(["catalog", "cube"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"]


def test_unknown_catalog_name_is_usage_error(capsys):
    assert main(["catalog", "nosuch"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_usage_error_on_missing_subcommand(capsys):
    assert main([]) == 64


def test_parse_error_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 65
    assert "byte 14" in capsys.readouterr().err


def test_boolean_neighbor_is_a_data_error(tmp_path, capsys):
    doc = {
        "vertices": [{"id": 0, "false": False}, {"id": 1, "false": False}],
        "rotation": {"0": [True], "1": [0]},
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 65
    assert "list of integers" in capsys.readouterr().err


def test_ambiguous_rotation_key_is_a_data_error(tmp_path, capsys):
    text = graphio.dumps(catalog("k4")).replace('"1": [', '"01": [', 1)
    path = tmp_path / "padded.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 65
    assert "rotation key '01'" in capsys.readouterr().err


def test_invalid_utf8_is_a_data_error_at_its_byte(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": [\xff]}')
    assert main(["validate", str(path)]) == 65
    assert "input error at byte 14" in capsys.readouterr().err


def test_deeply_nested_json_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    assert main(["validate", str(path)]) == 65
    assert "input error at byte 0" in capsys.readouterr().err


def test_overlong_integer_is_a_data_error(tmp_path, capsys):
    # 5000 digits exceed the interpreter's integer-string limit where it
    # has one; where it has none, the id is not dense from 0. Both exit 65.
    path = tmp_path / "bigint.json"
    path.write_text(
        '{"vertices": [{"id": %s, "false": false}], "rotation": {}}' % ("9" * 5000),
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 65
    assert "input error at byte 0" in capsys.readouterr().err


def _validate_exit(path, raw: bytes) -> int:
    path.write_bytes(raw)
    return main(["validate", str(path)])


@given(st.binary(max_size=300))
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_arbitrary_bytes_never_escape_validate(tmp_path, capsys, raw):
    assert _validate_exit(tmp_path / "any.json", raw) in (0, 1, 65)
    capsys.readouterr()


@given(st.sampled_from(catalog_names()), st.data())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_single_byte_mutations_never_escape_validate(tmp_path, capsys, name, data):
    raw = bytearray(graphio.dumps(catalog(name)).encode("utf-8"))
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    assert _validate_exit(tmp_path / "mutated.json", bytes(raw)) in (0, 1, 65)
    capsys.readouterr()


def test_missing_file_is_a_data_error(capsys):
    assert main(["validate", "/nonexistent/x.json"]) == 65
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["discharge", "{k5}", "--ledger", "{out}"],
        ["gen", "--seed", "5", "--size", "14", "--out", "{out}"],
        ["catalog", "k4", "--out", "{out}"],
    ],
    ids=["discharge", "gen", "catalog"],
)
def test_unwritable_output_is_an_output_error(argv, k5_file, tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "x")
    assert main([a.format(k5=k5_file, out=out) for a in argv]) == 73
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: ") and out in captured.err


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter, importing the package from
    the same source tree as this test."""
    src = str(Path(oneplane.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m oneplane.cli ARGS` in a fresh interpreter."""
    return _run_python("-m", "oneplane.cli", *args)


def test_entry_passes_the_exit_code_to_the_process(tmp_path):
    done = _run_module("catalog", "k4")
    assert done.returncode == 0, done.stderr
    assert done.stdout == graphio.dumps(catalog("k4")).encode("utf-8")
    done = _run_module("validate", str(tmp_path / "missing.json"))
    assert done.returncode == 65, done.stderr


def test_parser_is_built_on_the_first_call_and_only_once(k5_file, capsys):
    done = _run_python(
        "-c",
        "from oneplane import cli; print(cli._build_parser.cache_info().currsize)",
    )
    assert done.stdout == b"0\n", done.stderr  # importing builds nothing
    for argv in ([], ["catalog", "nosuch"], ["validate", k5_file], ["audit", k5_file]):
        main(argv)
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1


def test_shared_parser_carries_no_state_between_calls(k5_file, tmp_path, capsys, monkeypatch):
    # Each call in this process must print what it prints as the first
    # call of a fresh one. COLUMNS fixes the help text's width for both.
    monkeypatch.setenv("COLUMNS", "80")
    ledger = str(tmp_path / "k5.ledger")
    for argv in (
        [],
        ["--help"],
        ["catalog", "nosuch"],
        ["light-edges", k5_file, "--format", "json"],
        ["discharge", k5_file, "--format", "json", "--ledger", ledger],
        ["audit", k5_file, "--format", "json"],
    ):
        first = _run_module(*argv)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out.encode(), err.encode()) == (first.returncode, first.stdout, first.stderr)


def test_json_reports_are_byte_identical(k5_file, capsys):
    main(["audit", k5_file, "--format", "json"])
    first = capsys.readouterr().out
    main(["audit", k5_file, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_not_plane_input_is_invalid(tmp_path, capsys):
    doc = {
        "vertices": [{"id": i, "false": False} for i in range(5)],
        "rotation": {str(v): [u for u in range(5) if u != v] for v in range(5)},
    }
    path = tmp_path / "k5abstract.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "NotPlane" in capsys.readouterr().err


def _boom(g):
    raise RuntimeError("unexpected")


# name: (argv, exit code, replacement for cli.apply_discharging or None)
EXIT_PATHS = {
    "ok": (["audit", "{k5}"], 0, None),
    "invalid": (["validate", "{broken}"], 1, None),
    "hypothesis-unmet": (["light-edges", "{path}"], 2, None),
    "candidate": (["audit", "{gadget}"], 3, tampered_run),
    "usage": (["catalog", "nosuch"], 64, None),
    "data": (["validate", "{missing}"], 65, None),
    "cantcreat": (["discharge", "{k5}", "--ledger", "{unwritable}"], 73, None),
    "help": (["--help"], 0, None),
    "exception": (["discharge", "{k5}"], RuntimeError, _boom),
}


@pytest.fixture()
def gc_setting():
    """Restores the collector's setting after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code, discharge", EXIT_PATHS.values(), ids=EXIT_PATHS.keys())
def test_collector_setting_is_restored_on_every_exit_path(
    argv, code, discharge, enabled, k5_file, broken_file, tmp_path, capsys, monkeypatch, gc_setting
):
    files = {
        "k5": k5_file,
        "broken": broken_file,
        "path": str(tmp_path / "path.json"),
        "gadget": str(tmp_path / "gadget.json"),
        "missing": str(tmp_path / "missing.json"),
        "unwritable": str(tmp_path / "missing-dir" / "x.ledger"),
    }
    graphio.save(build_drawing({0: [1], 1: [0, 2], 2: [1]}), files["path"])
    graphio.save(crossing_gadget(24, 24, 3, 3, "triangle"), files["gadget"])
    if discharge is not None:
        monkeypatch.setattr(cli, "apply_discharging", discharge)
    (gc.enable if enabled else gc.disable)()
    argv = [a.format(**files) for a in argv]
    if isinstance(code, int):
        assert main(argv) == code
    else:
        with pytest.raises(code):
            main(argv)
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_collector_is_paused_while_a_command_runs(k5_file, capsys, monkeypatch, gc_setting):
    seen = []

    def spy(g):
        seen.append(gc.isenabled())
        return validate(g)

    monkeypatch.setattr(cli, "validate", spy)
    gc.enable()
    assert main(["validate", k5_file]) == 0
    assert seen == [False] and gc.isenabled()
    capsys.readouterr()
