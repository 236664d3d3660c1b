"""Command-line interface.

Commands: validate, recover, light-edges, discharge, audit, gen, catalog.
The first five are drawing commands: each builds its report fields and
exit code from a valid input drawing, and one runner, `_report`, loads
and validates the drawing, prints the report and returns the code.
Every drawing report starts with `command` and `input` (JSON then sorts
the keys); an invalid drawing gets the validate report under the
command's name. Reports render as human-readable text (default) or
canonical JSON; both are byte-stable for identical inputs and flags. A
JSON report is `json.dumps(report, indent=2, sort_keys=True)`. Two
lists are formatted through fixed per-record templates instead, with
the same bytes, pinned by tests and CI: the `light_edges` records of the
light-edges report, here, and the vertex entries and rotation rows of
the drawing that gen and catalog write, in `graphio.dumps`, which
refuses vertex ids that are not dense from 0.

Exit codes:
  0   success; for light-edges, a guaranteed witness was found
  1   invalid input drawing (validation violations, malformed rotation,
      non-sphere embedding) or unsatisfiable generator parameters
  2   guarantee hypothesis unmet (minimum degree below 3)
  3   counterexample candidate or failed audit; on valid input this
      indicates a bug and should be reported
  64  usage error
  65  unreadable or unparseable input (diagnostic names the byte offset)
  73  output cannot be written (a --ledger or --out path, or stdout)

`main` pauses the cyclic garbage collector while a command runs and
restores the caller's setting on every exit path. The data the checker
builds hold no reference cycles, so reference counting frees them as it
goes and the collector's passes over live objects would free nothing.
The library functions leave the collector alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

from . import graphio
from .audit import audit as run_audit
from .discharging import apply_discharging, element_label, exact_sum, initial_total, ledger_lines
from .embedding import Disconnected, MalformedRotation, NotPlane
from .generators import GenerationFailed, GeneratorParams, catalog, catalog_names, random_oneplane
from .lightedge import HYPOTHESIS_UNMET, WITNESS_FOUND, check_light_edge_guarantee
from .oneplanar import drawing_diagnostics, recover_original, validate

EX_OK = 0
EX_INVALID = 1
EX_HYPOTHESIS = 2
EX_CANDIDATE = 3
EX_USAGE = 64
EX_DATA = 65
EX_CANTCREAT = 73


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first `main` call.
    Sharing it is safe: `parse_args` returns a fresh namespace on every
    call and `_Parser.error` raises instead of storing anything."""
    parser = _Parser(prog="oneplane", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def drawing_command(name, build, summary):
        p = command(name, functools.partial(_report, build), summary)
        p.add_argument("input", help="graph JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    drawing_command("validate", _cmd_validate, "check the crossing structure")
    drawing_command("recover", _cmd_recover, "recover the original graph")
    drawing_command("light-edges", _cmd_light_edges, "list light edges and the guarantee verdict")
    p = drawing_command("discharge", _cmd_discharge, "run the discharging rules")
    p.add_argument("--ledger", metavar="PATH", help="write the transfer ledger here")
    drawing_command("audit", _cmd_audit, "discharge and audit the ledger")

    p = command("gen", _cmd_gen, "generate a seeded random drawing")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")

    p = command("catalog", _cmd_catalog, "emit a fixed catalog drawing")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")

    return parser


def _report(build, args) -> int:
    """Run one drawing command: load the input drawing g, build the
    command's report fields and exit code with `build(args, g)`, print
    the report with `command` and `input` first, and return the code.
    An invalid g gets the validation report under the command's name
    and exit 1 instead. Diagnostics are computed only for a printed
    validation report."""
    g = _load(args.input)
    violations = validate(g).violations
    fields, code = _cmd_validate(args, g, violations) if violations else build(args, g)
    _emit({"command": args.command, "input": args.input, **fields}, args.format)
    return code


def _emit(report: dict, fmt: str) -> None:
    """Print `report` as text or as JSON. A `light_edges` member holds
    witnesses: text lists each as `_witness_dict`, JSON formats each
    through `_WITNESS_JSON`."""
    witnesses = report.get("light_edges")
    if fmt == "text":
        if witnesses is not None:
            report = {**report, "light_edges": [_witness_dict(w) for w in witnesses]}
        print("\n".join(_text_lines(report)))
        return
    if not witnesses:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    text = json.dumps({**report, "light_edges": []}, indent=2, sort_keys=True)
    records = ",\n".join([_WITNESS_JSON % (*w.degrees, *w.edge, w.light_type) for w in witnesses])
    # a newline inside a JSON string is escaped, so this matches only the key
    print(text.replace('\n  "light_edges": []', '\n  "light_edges": [\n%s\n  ]' % records, 1))


def _text_lines(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        elif isinstance(value, list) and all(isinstance(x, (int, float)) for x in value):
            lines.append(f"{prefix}{key}: {value}")
        elif isinstance(value, list):
            lines.append(f"{prefix}{key} ({len(value)}):")
            for item in value:
                if isinstance(item, dict):
                    body = _text_lines(item, prefix + "    ")
                    lines.append(f"{prefix}  - {body[0].strip()}")
                    lines.extend(body[1:])
                else:
                    lines.append(f"{prefix}  {item}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _witness_dict(w) -> dict:
    return {
        "edge": list(w.edge),
        "degrees": list(w.degrees),
        "type": w.light_type,
    }


# One `light_edges` record of `json.dumps(report, indent=2, sort_keys=True)`.
# A light type is "T3" to "T7", which JSON writes unescaped.
_WITNESS_JSON = """    {
      "degrees": [
        %d,
        %d
      ],
      "edge": [
        %d,
        %d
      ],
      "type": "%s"
    }"""


def _load(path: str):
    """The input drawing. A file that cannot be read is an input error at
    byte 0, so that an OSError reaching `main` is always an output error."""
    try:
        return graphio.load(path)
    except OSError as err:
        raise graphio.GraphFormatError(str(err)) from None


# A drawing command's builder takes (args, g), g a valid drawing, and
# returns its report fields and exit code, which `_report` prints and
# returns. `_cmd_validate` also builds the report of a refused drawing,
# from its violations.


def _cmd_validate(args, g, violations=()) -> tuple[dict, int]:
    return {
        "valid": not violations,
        "violations": [str(v) for v in violations],
        "diagnostics": [str(v) for v in drawing_diagnostics(g).violations],
    }, EX_INVALID if violations else EX_OK


def _cmd_recover(args, g) -> tuple[dict, int]:
    view = recover_original(g)
    return {
        "vertices": len(view.vertices),
        "edges": [list(e) for e in view.edges],
        "degrees": {str(v): view.degrees[v] for v in view.vertices},
        "min_degree": view.min_degree(),
    }, EX_OK


# A light-edges status's exit code; any other status is a counterexample
# candidate.
_LIGHT_EDGES_EXIT = {WITNESS_FOUND: EX_OK, HYPOTHESIS_UNMET: EX_HYPOTHESIS}


def _cmd_light_edges(args, g) -> tuple[dict, int]:
    verdict = check_light_edge_guarantee(g)
    return {
        "profile": "thm12",  # always BOUNDS; the key keeps the report's shape
        "status": verdict.status,
        "min_degree": verdict.min_degree,
        "witness": _witness_dict(verdict.witness) if verdict.witness else None,
        "light_edges": verdict.light_edges,
    }, _LIGHT_EDGES_EXIT.get(verdict.status, EX_CANDIDATE)


def _cmd_discharge(args, g) -> tuple[dict, int]:
    final, transfers = apply_discharging(g)
    initial, final_total = initial_total(g), exact_sum(final.values())
    fields = {
        "initial_total": str(initial),
        "final_total": str(final_total),
        "conserved": final_total == initial,
        "transfers": len(transfers),
        "rule_counts": dict(sorted(Counter(map(itemgetter(0), transfers)).items())),
    }
    if args.ledger:
        Path(args.ledger).write_text("\n".join(ledger_lines(transfers)) + "\n", encoding="utf-8")
        fields["ledger"] = args.ledger
    return fields, EX_OK


def _cmd_audit(args, g) -> tuple[dict, int]:
    final, transfers = apply_discharging(g)
    report = run_audit(g, final, transfers)
    return {
        "initial_total": str(report.initial_total),
        "final_total": str(report.final_total),
        "conserved": report.conserved,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "instances": c.instances,
                "failures": list(c.failures),
            }
            for c in report.checks
        ],
        "negative_elements": [
            f"{element_label(el)} = {charge}" for el, charge in report.negative_elements
        ],
    }, EX_OK if report.passed else EX_CANDIDATE


def _cmd_gen(args) -> int:
    try:
        g = random_oneplane(GeneratorParams(args.seed, args.size, args.density))
    except (GenerationFailed, ValueError) as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return EX_INVALID
    return _write_drawing(g, args.out)


def _cmd_catalog(args) -> int:
    return _write_drawing(catalog(args.name), args.out)


def _write_drawing(g, out: str | None) -> int:
    if out:
        graphio.save(g, out)
    else:
        sys.stdout.write(graphio.dumps(g))
    return EX_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except graphio.GraphFormatError as err:
        print(f"input error at byte {err.byte_offset}: {err}", file=sys.stderr)
        return EX_DATA
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EX_CANTCREAT
    except (MalformedRotation, Disconnected, NotPlane) as err:
        print(f"invalid drawing: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_INVALID
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
