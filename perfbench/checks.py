"""Output checks for one benchmark check, run outside the timed region.

A check is `light-edges`, `discharge --ledger` and `audit` on one
drawing file, all with `--format json`. The expected values come from
the drawing file itself, read here with plain `json`, and from the
independent naive enumerator of the test suite (`naive_oracle`), never
from the package under test.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

COMMANDS = ("light-edges", "discharge", "audit")
AUDIT_GATES = (
    "conservation",
    "face-balance",
    "crossing-margin",
    "triangle-pays-3-vertex",
    "triangle-pays-4-vertex",
    "quad-face-payments",
    "big-face-payments",
)
RULES = ("R1", "R2", "R3", "R4", "R5", "R6.1", "R6.2", "R6.3", "R6.4", "R7", "R8")


@dataclass(frozen=True)
class Drawing:
    """A drawing file as the benchmark reads it, independently of graphio."""

    rotation: dict[int, tuple[int, ...]]
    false_vertices: frozenset[int]

    @classmethod
    def parse(cls, text: str) -> Drawing:
        doc = json.loads(text)
        false = frozenset(e["id"] for e in doc["vertices"] if e["false"])
        return cls({int(k): tuple(v) for k, v in doc["rotation"].items()}, false)

    def shape(self) -> dict[str, int]:
        """V, E, F (by Euler's identity on the sphere) and X of the
        planarized drawing."""
        v = len(self.rotation)
        e = sum(len(r) for r in self.rotation.values()) // 2
        return {"V": v, "E": e, "F": e - v + 2, "X": len(self.false_vertices)}

    def min_true_degree(self) -> int:
        """Minimum planarized degree over true vertices. On a valid drawing
        it equals the minimum degree of the recovered graph."""
        return min(len(r) for v, r in self.rotation.items() if v not in self.false_vertices)


def ledger_records(text: str) -> list[str]:
    """Lines of a ledger file written by `discharge --ledger`.

    The CLI writes "\\n".join(lines) + "\\n", so a zero-transfer ledger
    is the single byte "\\n"; read naively it would be one blank record.
    It holds zero lines, as does an empty file.
    """
    if text in ("", "\n"):
        return []
    if not text.endswith("\n"):
        raise ValueError("ledger does not end with a newline")
    lines = text[:-1].split("\n")
    if any(not line for line in lines):
        raise ValueError("ledger has a blank line")
    return lines


def multiset_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def oracle_digest(drawing: Drawing) -> str:
    """Digest of the naive enumerator's ledger, as a multiset of lines."""
    from naive_oracle import naive_ledger

    return multiset_digest(naive_ledger(drawing.rotation, set(drawing.false_vertices)))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one check produced, reduced to what later comparisons need."""

    deviations: list[str]
    digests: dict[str, str]  # byte-stability digests, per command and ledger
    ledger_multiset: str | None = None
    counts: dict[str, int] | None = None  # exact counts from the JSON reports


def evaluate(drawing: Drawing, outputs: dict[str, tuple], ledger_text: str | None) -> Outcome:
    """Check one check's exit codes, reports and ledger.

    `outputs` maps each command to (exit code, stdout, stderr).
    """
    dev: list[str] = []
    digests = {cmd: _digest(f"{rc}\n{out}") for cmd, (rc, out, _) in outputs.items()}
    if ledger_text is not None:
        digests["ledger"] = _digest(ledger_text)
    for cmd, (rc, _, err) in outputs.items():
        if err:
            dev.append(f"{cmd}: stderr {err.strip()[:200]!r}")
    try:
        docs = {cmd: json.loads(out) for cmd, (_, out, _) in outputs.items()}
    except json.JSONDecodeError as err:
        dev.append(f"report is not JSON: {err}")
        return Outcome(dev, digests)

    min_deg = drawing.min_true_degree()
    expected = 0 if min_deg >= 3 else 2
    rc, doc = outputs["light-edges"][0], docs["light-edges"]
    if rc != expected:
        dev.append(f"light-edges: exit {rc}, expected {expected} (min degree {min_deg})")
    if doc.get("min_degree") != min_deg:
        dev.append(f"light-edges: min_degree {doc.get('min_degree')}, expected {min_deg}")
    if (doc.get("status") == "witness-found") != (expected == 0) or (
        (doc.get("witness") is None) == (expected == 0)
    ):
        dev.append(f"light-edges: status {doc.get('status')} with witness {doc.get('witness')}")

    counts: dict[str, int] = {}
    multiset = None
    rc, doc = outputs["discharge"][0], docs["discharge"]
    if rc != 0:
        dev.append(f"discharge: exit {rc}")
    if not (doc.get("conserved") is True and doc.get("initial_total") == doc.get("final_total") == "-8"):
        dev.append("discharge: totals not conserved at -8")
    try:
        if ledger_text is None:
            raise ValueError("no ledger written")
        lines = ledger_records(ledger_text)
    except ValueError as err:
        dev.append(f"discharge: {err}")
    else:
        multiset = multiset_digest(lines)
        fired = Counter(line.split(";", 1)[0] for line in lines)
        if doc.get("transfers") != len(lines) or doc.get("rule_counts") != dict(sorted(fired.items())):
            dev.append("discharge: transfers or rule_counts disagree with the ledger")
        counts["discharging.transfers"] = len(lines)
        for rule in RULES:
            counts[f"discharging.fired.{rule}"] = fired.get(rule, 0)
        unknown = set(fired) - set(RULES)
        if unknown:
            dev.append(f"discharge: unknown rules {sorted(unknown)}")

    rc, doc = outputs["audit"][0], docs["audit"]
    if rc != 0 or doc.get("conserved") is not True or doc.get("passed") is not True:
        dev.append(f"audit: exit {rc}, conserved {doc.get('conserved')}, passed {doc.get('passed')}")
    gates = {c["name"]: c["instances"] for c in doc.get("checks", [])}
    if set(gates) != set(AUDIT_GATES):
        dev.append(f"audit: gates {sorted(gates)}")
    for gate in AUDIT_GATES:
        counts[f"audit.instances.{gate}"] = gates.get(gate, 0)
    return Outcome(dev, digests, multiset, counts)
