"""Audit bookkeeping: flows, margins, and the gated payment checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gadgets import (
    big_face_gadget,
    crossing_gadget,
    doubly_triangular_gadget,
    prepaid_big_face_gadget,
    quad_payment_gadget,
    triangle_payment_gadget,
)
from naive_oracle import naive_audit
from oneplane.audit import audit
from oneplane.discharging import (
    apply_discharging,
    exact_sum,
    initial_charges,
    initial_total,
    transitive_corners,
    vertex,
)
from oneplane.generators import GeneratorParams, catalog, catalog_names, random_oneplane
from oneplane.oneplanar import build_drawing
from reports import gate
from test_acceptance import R6_SAMPLES

K4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}


def run(g):
    final, transfers = apply_discharging(g)
    return audit(g, final, transfers), final


def test_plane_graph_flows_are_vacuous():
    report, _ = run(build_drawing(K4))
    assert report.conserved
    assert report.passed
    assert all(f.sent_via_false == 0 for f in report.face_flow.values())
    assert report.crossing_flow == ()


def test_k5_audit_passes_and_records_negatives():
    report, final = run(catalog("k5-one-crossing"))
    assert report.conserved
    assert report.initial_total == report.final_total == -8
    assert report.passed
    assert sum(charge for _, charge in report.negative_elements) <= -8
    assert (vertex(5), final[vertex(5)]) not in report.negative_elements


def test_routing_margin_is_exactly_one_at_the_tight_band():
    # two 9-vertices flank the crossing: income 2 * 5/9, demand 2 * 1/18
    report, _ = run(crossing_gadget(9, 9, 1, 1))
    flows = [c for c in report.crossing_flow if c.outflow > 0]
    assert len(flows) == 1
    flow = flows[0]
    assert flow.inflow == Fraction(10, 9)
    assert flow.outflow == Fraction(1, 9)
    assert flow.inflow == 2 * flow.outflow * 5  # comfortably above 2x
    balance = report.face_flow[flow.face]
    assert balance.received_heavy == balance.sent_via_false + 1
    assert gate(report, "face-balance").passed
    assert gate(report, "crossing-margin").passed


def test_margin_tight_cases_across_bands():
    for args in [(12, 23, 4, 6, "quad"), (10, 11, 5, 5, "quad"), (9, 9, 6, 6, "quad")]:
        report, _ = run(crossing_gadget(*args))
        for c in report.crossing_flow:
            if c.outflow > 0:
                assert c.inflow >= 2 * c.outflow
        assert report.passed


def test_triangle_pays_three_vertex_exactly_two_thirds():
    g = triangle_payment_gadget(3, 24)
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    check = gate(report, "triangle-pays-3-vertex")
    assert check.instances == 1
    assert check.passed
    triangle = next(
        i for i in range(g.embedding.face_count()) if g.embedding.face_degrees[i] == 3
    )
    # income 2 * 5/6 against the triangle's -1, all handed to the 3-vertex
    paid = sum(
        t.amount
        for t in transfers
        if t.rule == "R7" and t.source == ("f", triangle) and t.target == vertex(0)
    )
    assert paid == Fraction(2, 3)


def test_triangle_pays_four_vertex_exactly_one_third():
    g = triangle_payment_gadget(4, 12)
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    check = gate(report, "triangle-pays-4-vertex")
    assert check.instances == 1
    assert check.passed
    triangle = next(
        i for i in range(g.embedding.face_count()) if g.embedding.face_degrees[i] == 3
    )
    paid = sum(
        t.amount
        for t in transfers
        if t.rule == "R7" and t.source == ("f", triangle) and t.target == vertex(0)
    )
    assert paid == Fraction(1, 3)


def test_quad_payment_with_true_mid():
    g = quad_payment_gadget(3, 24)
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    check = gate(report, "quad-face-payments")
    assert check.instances == 1 and check.passed
    quad = next(
        i for i in range(g.embedding.face_count()) if g.embedding.face_degrees[i] == 4
    )
    for target in (0, 2):  # the 3-vertex anchor and the degree-2 mid vertex
        paid = sum(
            t.amount
            for t in transfers
            if t.rule == "R7" and t.source == ("f", quad) and t.target == vertex(target)
        )
        assert paid == Fraction(5, 6)


def test_quad_payment_with_crossing_mid():
    g = quad_payment_gadget(3, 24, crossing_mid=True)
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    assert report.passed
    quad = next(
        i
        for i in range(g.embedding.face_count())
        if g.embedding.face_degrees[i] == 4 and 0 in g.embedding.faces[i]
    )
    # income 2 * 5/6, routed demand 4 * 1/6, everything else to the anchor
    paid = sum(
        t.amount
        for t in transfers
        if t.rule == "R7" and t.source == ("f", quad) and t.target == vertex(0)
    )
    assert paid == 1
    flow = report.face_flow[quad]
    assert flow.received_heavy == Fraction(5, 3)
    assert flow.sent_via_false == Fraction(2, 3)


def test_big_face_payment():
    g = big_face_gadget(9)
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    check = gate(report, "big-face-payments")
    assert check.instances >= 1 and check.passed
    pentagon = next(
        i
        for i in range(g.embedding.face_count())
        if g.embedding.faces[i] == (0, 1, 2, 3, 4)
        or set(g.embedding.faces[i]) == {0, 1, 2, 3, 4}
    )
    paid = sum(
        t.amount
        for t in transfers
        if t.rule == "R8" and t.source == ("f", pentagon) and t.target == vertex(0)
    )
    assert paid == 1 + 4 * Fraction(5, 9)


def test_routed_totals_decompose_over_crossings():
    # per face, the routed-out total is the sum of its per-crossing demands
    for g in (crossing_gadget(9, 24, 5, 5, "quad"), catalog("k6-three-crossings")):
        report, _ = run(g)
        by_face: dict[int, Fraction] = {}
        for c in report.crossing_flow:
            by_face[c.face] = by_face.get(c.face, Fraction(0)) + c.outflow
        for i, flow in report.face_flow.items():
            assert flow.sent_via_false == by_face.get(i, Fraction(0))


def test_corpus_audits_pass(corpus_runs):
    for name, g, final, transfers in corpus_runs[:30]:
        report = audit(g, final, transfers)
        assert report.conserved, name
        assert report.passed, (name, [c.name for c in report.checks if not c.passed])


def test_crossing_inflow_covers_exactly_the_transitive_corners():
    # the audit's pi+ and the engine's routing test read the same corners
    drawings = [catalog(name) for name in catalog_names()] + list(R6_SAMPLES)
    drawings += [random_oneplane(GeneratorParams(seed, 20, 0.75)) for seed in range(3)]
    for g in drawings:
        report, _ = run(g)
        inflowing = {(c.face, c.via) for c in report.crossing_flow if c.inflow > 0}
        assert inflowing == {(f, v) for f, _, v, _ in transitive_corners(g)}


def _gadget_drawings():
    """Every valid drawing the gadget builders make over a sweep of their
    parameters; `squeezed_gadget` and `encircled_gadget` are invalid
    drawings that cannot be discharged."""
    out = []
    for m in (8, 9, 10, 12, 24, 30):
        for far in ((1, 1), (3, 3), (3, 7), (4, 6), (6, 4), (7, 7)):
            for sender in ("triangle", "quad"):
                out.append(crossing_gadget(m, m + 1, *far, sender))
    for k in (4, 5, 6):
        for far_b in (3, 8, 9, 11, 12):
            out.append(crossing_gadget(k, 9, 3, far_b, link_partner_far=True))
    # the link B-C closes a triangle past the far end C, so the corner
    # faces beyond the two far ends differ
    out.append(crossing_gadget(12, 12, 6, 7, link_partner_far=True))
    for small, heavy in ((3, 24), (3, 23), (4, 12), (4, 11), (5, 24)):
        out.append(triangle_payment_gadget(small, heavy))
    for anchor, heavy in ((3, 24), (3, 23), (4, 12), (4, 11)):
        out.append(quad_payment_gadget(anchor, heavy))
        for mid_far in ((3, 3), (4, 9), (9, 9)):
            out.append(quad_payment_gadget(anchor, heavy, True, mid_far))
    out.extend(big_face_gadget(d) for d in (3, 5, 9, 24))
    # 3-vertices and true 4-vertices on exactly half of the pentagon
    out.append(prepaid_big_face_gadget())
    out.append(doubly_triangular_gadget())
    return out


def _assert_matches_oracle(name, g, final, transfers):
    """The audit of (final, transfers) equals `naive_audit`'s, field by
    field, failure messages and their order included."""
    report = audit(g, final, transfers)
    ref = naive_audit(g.embedding.rotation, g.false_vertices, final, transfers)
    assert report.initial_total == ref["initial_total"], name
    assert report.final_total == ref["final_total"], name
    assert {
        i: (f.received_heavy, f.sent_via_false) for i, f in report.face_flow.items()
    } == ref["face_flow"], name
    assert [(c.face, c.via, c.inflow, c.outflow) for c in report.crossing_flow] == ref[
        "crossing_flow"
    ], name
    assert [(c.name, c.instances, c.failures) for c in report.checks] == ref["checks"], name
    assert list(report.negative_elements) == ref["negative_elements"], name
    return report


def test_grouped_sums_equal_the_per_transfer_reference(corpus_runs):
    """The audit's grouped exact sums equal the running per-transfer sums
    on the corpus (catalog included), on the R6 samples and on the
    gadgets; the corpus fires no R6, so the gadgets are needed."""
    runs = [(name, g, final, transfers) for name, g, final, transfers in corpus_runs]
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        runs.append((f"gadget:{i}", g, *apply_discharging(g)))
    fired = set()
    for name, g, final, transfers in runs:
        assert initial_total(g) == exact_sum(initial_charges(g).values()) == -8, name
        report = _assert_matches_oracle(name, g, final, transfers)
        fired |= {t.rule for t in transfers}
        fired |= {c.name for c in report.checks if c.instances}
    assert {"R1", "R2", "R3", "R4", "R5", "R6.1", "R6.2", "R6.3", "R6.4", "R7", "R8"} <= fired
    assert {
        "crossing-margin",
        "triangle-pays-3-vertex",
        "triangle-pays-4-vertex",
        "quad-face-payments",
        "big-face-payments",
    } <= fired


def tampered_run(g):
    """A ledger the engine never writes, and final charges recomputed
    from it: every R7/R8 transfer is dropped and every R6 amount is
    multiplied by ten; then one vertex gets 1 more charge, so the total
    drifts too."""
    _, transfers = apply_discharging(g)
    ledger = [
        t._replace(amount=10 * t.amount) if t.rule.startswith("R6") else t
        for t in transfers
        if t.rule not in ("R7", "R8")
    ]
    charges = initial_charges(g)
    for t in ledger:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
    charges[vertex(g.embedding.vertices[0])] += 1
    return charges, ledger


def test_tampered_ledgers_fail_every_gate_as_the_oracle_does():
    failing = set()
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        report = _assert_matches_oracle(f"gadget:{i}", g, *tampered_run(g))
        assert not report.passed, i
        failing |= {c.name for c in report.checks if not c.passed}
    assert failing == {
        "conservation",
        "face-balance",
        "crossing-margin",
        "triangle-pays-3-vertex",
        "triangle-pays-4-vertex",
        "quad-face-payments",
        "big-face-payments",
    }


def partly_paid_run(g):
    """A ledger the engine never writes, and final charges recomputed
    from it: every other R7/R8 transfer is dropped, the first one kept
    is listed in full, and then each one kept is paid in two halves. So
    the owed (face, vertex) pairs read groups of none, two and three
    amounts."""
    _, transfers = apply_discharging(g)
    kept = [t for t in transfers if t.rule in ("R7", "R8")][::2]
    halves = [t._replace(amount=t.amount / 2) for t in kept]
    ledger = [t for t in transfers if t.rule not in ("R7", "R8")] + kept[:1] + halves + halves
    charges = initial_charges(g)
    for t in ledger:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
    return charges, ledger


def test_partly_paid_ledgers_are_audited_as_the_oracle_does():
    gates = {"triangle-pays-3-vertex", "triangle-pays-4-vertex", "quad-face-payments",
             "big-face-payments"}
    passing, failing = set(), set()
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        report = _assert_matches_oracle(f"gadget:{i}", g, *partly_paid_run(g))
        passing |= {c.name for c in report.checks if c.instances and c.passed}
        failing |= {c.name for c in report.checks if not c.passed}
    # some owed pairs are still paid enough, others are not
    assert gates <= passing and gates & failing


def test_unknown_gate_name_is_a_key_error():
    report, _ = run(build_drawing(K4))
    assert gate(report, "conservation").instances == 1
    with pytest.raises(KeyError, match="no audit gate named 'nope'"):
        gate(report, "nope")
