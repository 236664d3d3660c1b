"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The corpus is the full catalog plus 200 seeded random instances
with true-vertex sizes sweeping 4..60 (see conftest.corpus_params).
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

import pytest

from gadgets import crossing_gadget
from naive_oracle import naive_ledger
from oneplane.audit import audit
from oneplane.discharging import apply_discharging, exact_sum, initial_charges, ledger_lines
from oneplane.embedding import build_embedding
from oneplane.generators import _fill_faces
from oneplane.lightedge import (
    COUNTEREXAMPLE_CANDIDATE,
    WITNESS_FOUND,
    check_light_edge_guarantee,
    classify_edge,
    find_light_edges,
)
from oneplane.oneplanar import drawing_diagnostics, recover_original, validate
from reports import gate, violation_kinds

from gadgets import encircled_gadget


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus_audits(corpus_runs):
    return [(name, g, audit(g, final, transfers)) for name, g, final, transfers in corpus_runs]


# The R6 sub-rules need degree-9+ corners, which desk-scale random
# quadrangulation fills cannot produce; these fixed crossings complete
# the rule-table sample for criterion 4.
R6_SAMPLES = [
    crossing_gadget(24, 24, 3, 3, "triangle"),
    crossing_gadget(24, 30, 3, 4, "triangle"),
    crossing_gadget(25, 24, 3, 3, "quad"),
    crossing_gadget(12, 23, 4, 6, "triangle"),
    crossing_gadget(15, 18, 5, 7, "triangle"),
    crossing_gadget(12, 30, 6, 9, "quad"),
    crossing_gadget(10, 11, 1, 2, "triangle"),
    crossing_gadget(11, 40, 6, 8, "triangle"),
    crossing_gadget(10, 10, 3, 3, "quad"),
    crossing_gadget(9, 9, 1, 1, "triangle"),
    crossing_gadget(9, 12, 6, 7, "triangle"),
    crossing_gadget(9, 24, 5, 5, "quad"),
]


@criterion(1, "initial charge identity")
def test_initial_charges_sum_to_minus_eight(corpus):
    start = time.perf_counter()
    for name, g in corpus:
        assert exact_sum(initial_charges(g).values()) == Fraction(-8), name
    elapsed = time.perf_counter() - start
    sizes = {g.embedding.vertex_count() - len(g.false_vertices) for _, g in corpus}
    assert set(range(4, 61)) <= sizes
    assert len(corpus) >= 206
    assert elapsed < 5.0, f"sum check took {elapsed:.2f}s"


@criterion(2, "conservation after discharging")
def test_final_charges_sum_to_minus_eight(corpus_runs):
    for name, _g, final, _transfers in corpus_runs:
        assert exact_sum(final.values()) == Fraction(-8), name


@criterion(3, "guaranteed light-edge witness")
def test_every_qualifying_instance_has_a_witness(corpus):
    seen_types: set[str] = set()
    for name, g in corpus:
        verdict = check_light_edge_guarantee(g)
        assert verdict.status != COUNTEREXAMPLE_CANDIDATE, name
        if recover_original(g).min_degree() >= 3:
            assert verdict.status == WITNESS_FOUND, name
            seen_types.add(verdict.witness.light_type)
    assert {"T3", "T4", "T5", "T6"} <= seen_types, seen_types
    # the quadrilateral construction realizes the degree-3 type directly
    c4 = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
    k4 = _fill_faces({v: list(r) for v, r in c4.items()}, [build_embedding(c4).faces[0]])
    k4_witnesses = find_light_edges(recover_original(k4))
    assert {w.light_type for w in k4_witnesses} == {"T3"}


RULE_AMOUNTS = {
    "R1": {Fraction(1, 6)},
    "R2": {Fraction(3, 10), Fraction(1, 5)},
    "R3": {Fraction(7, 18), Fraction(1, 3)},
    "R4": {Fraction(1, 2)},
    "R6.1": {Fraction(1, 6), Fraction(1, 3)},
    "R6.2": {Fraction(1, 6), Fraction(1, 3)},
    "R6.3": {Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)},
    "R6.4": {Fraction(1, 18), Fraction(1, 9), Fraction(5, 18)},
}


@criterion(4, "rule-table fidelity")
def test_transfer_amounts_match_the_rule_table(corpus_runs):
    sampled = [(name, g, transfers) for name, g, _f, transfers in corpus_runs]
    sampled += [
        (f"gadget:{i}", g, apply_discharging(g)[1]) for i, g in enumerate(R6_SAMPLES)
    ]
    seen_rules: set[str] = set()
    for name, g, transfers in sampled:
        emb = g.embedding
        for t in transfers:
            seen_rules.add(t.rule)
            if t.rule in RULE_AMOUNTS:
                assert t.amount in RULE_AMOUNTS[t.rule], (name, t)
            elif t.rule == "R5":
                d = emb.degrees[t.source[1]]
                assert d >= 8 and t.amount == Fraction(d - 4, d), (name, t)
            elif t.rule == "R8" and emb.degrees[t.target[1]] == 3:
                assert t.amount == Fraction(2, 3), (name, t)
            else:
                assert t.rule in ("R7", "R8"), (name, t)
    assert seen_rules >= {"R1", "R2", "R3", "R4", "R5", "R6.1", "R6.2", "R6.3", "R6.4", "R7", "R8"}


@criterion(5, "face balance and routing margins")
def test_received_charge_covers_routed_charge(corpus_audits):
    extra = [(f"gadget:{i}", g, audit(g, *apply_discharging(g))) for i, g in enumerate(R6_SAMPLES)]
    for name, g, report in list(corpus_audits) + extra:
        emb = g.embedding
        for i, flow in report.face_flow.items():
            if emb.face_degrees[i] >= 4:
                assert flow.received_heavy >= flow.sent_via_false, (name, i)
            elif flow.sent_via_false > 0:
                assert flow.received_heavy >= flow.sent_via_false + 1, (name, i)
        for c in report.crossing_flow:
            if c.outflow > 0:
                assert c.inflow >= 2 * c.outflow, (name, c)


@criterion(6, "gated payment guarantees")
def test_gated_claims_hold_where_their_hypotheses_do(corpus_audits):
    names = (
        "triangle-pays-3-vertex",
        "triangle-pays-4-vertex",
        "quad-face-payments",
        "big-face-payments",
    )
    totals = dict.fromkeys(names, 0)
    for name, _g, report in corpus_audits:
        for check_name in names:
            outcome = gate(report, check_name)
            assert outcome.passed, (name, check_name, outcome.failures)
            totals[check_name] += outcome.instances
    print("  gated instance counts over the corpus:", totals)


@criterion(7, "independent oracle equivalence")
def test_small_instances_match_the_naive_enumerator(corpus_runs):
    start = time.perf_counter()
    compared = 0
    for name, g, _final, transfers in corpus_runs:
        if g.embedding.vertex_count() > 12:
            continue
        engine = sorted(ledger_lines(transfers))
        oracle = sorted(naive_ledger(g.embedding.rotation, set(g.false_vertices)))
        assert engine == oracle, name
        compared += 1
    elapsed = time.perf_counter() - start
    assert compared >= 10, f"only {compared} small instances"
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"
    print(f"  compared {compared} ledgers in {elapsed:.2f}s")


@criterion(8, "classifier exhaustiveness")
def test_classifier_matches_complement_list_up_to_64():
    for a in range(3, 65):
        for b in range(a, 65):
            heavy = (
                (a == 3 and b >= 24)
                or (a == 4 and b >= 12)
                or (a == 5 and b >= 10)
                or (a == 6 and b >= 9)
                or (a >= 7 and b >= 8)
            )
            assert (classify_edge(a, b) is None) == heavy, (a, b)


@criterion(9, "structural diagnostics")
def test_diagnostics_flag_gadget_and_clear_catalog(corpus):
    report = drawing_diagnostics(encircled_gadget())
    assert "encircled-4-vertex" in violation_kinds(report)
    for name, g in corpus:
        if name.startswith("catalog:"):
            assert drawing_diagnostics(g).ok, name
            assert validate(g).ok, name
