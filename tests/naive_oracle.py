"""Independent brute-force re-implementation of the discharging scan
and of the audit's bookkeeping.

Used as the oracle for ledger equivalence and as the reference for the
audit's exact sums: it shares nothing with the engine except the raw
rotation table and the documented output conventions (faces anchored
and ordered by their smallest directed edge, ledger lines
"rule;source;target;via;num/den", zero transfers omitted). Everything
here is recomputed from scratch with plain dictionaries.
"""

from __future__ import annotations

from fractions import Fraction


def naive_faces(rotation: dict[int, tuple[int, ...]]) -> list[list[tuple[int, int]]]:
    darts = sorted((u, v) for u in rotation for v in rotation[u])
    faces = []
    seen = set()
    for start in darts:
        if start in seen:
            continue
        walk = []
        u, v = start
        while (u, v) not in seen:
            seen.add((u, v))
            walk.append((u, v))
            nbrs = rotation[v]
            u, v = v, nbrs[(nbrs.index(u) + 1) % len(nbrs)]
        faces.append(walk)
    return faces


def naive_ledger(rotation: dict[int, tuple[int, ...]], false_vertices: set[int]) -> list[str]:
    """Every transfer of a full discharging run, as unsorted ledger lines."""
    return naive_run(rotation, false_vertices)[0]


def naive_run(
    rotation: dict[int, tuple[int, ...]], false_vertices: set[int]
) -> tuple[list[str], dict[str, Fraction]]:
    """The unsorted ledger lines of a full discharging run and the final
    balance of every element, keyed by its label ("v3", "f0"), each
    balance a running `Fraction` moved one transfer at a time."""
    deg = {v: len(r) for v, r in rotation.items()}
    faces = naive_faces(rotation)
    face_of = {}
    for idx, walk in enumerate(faces):
        for dart in walk:
            face_of[dart] = idx

    def tails(idx):
        return [u for u, _ in faces[idx]]

    def is_false_face(idx):
        return any(t in false_vertices for t in tails(idx))

    def opposite(x, nbr):
        r = rotation[x]
        return r[(r.index(nbr) + 2) % 4]

    # original edges, assuming a valid drawing (no false-false chains)
    original = set()
    for u in rotation:
        if u in false_vertices:
            continue
        for v in rotation[u]:
            if v not in false_vertices:
                original.add((min(u, v), max(u, v)))
    for x in false_vertices:
        a, b, c, d = rotation[x]
        original.add((min(a, c), max(a, c)))
        original.add((min(b, d), max(b, d)))

    def special_pivots(idx):
        """True corner vertices at which this false triangle is special."""
        if len(faces[idx]) != 3 or not is_false_face(idx):
            return set()
        x = next(t for t in tails(idx) if t in false_vertices)
        corners = [t for t in tails(idx) if t != x]
        pivots = set()
        for pivot in corners:
            partner = next(c for c in corners if c != pivot)
            k = deg[pivot]
            bound = {4: 11, 5: 9, 6: 8}.get(k)
            if bound is None:
                continue
            pfar = opposite(x, pivot)
            qfar = opposite(x, partner)
            if (min(partner, pfar), max(partner, pfar)) in original and deg[qfar] <= bound:
                pivots.add(pivot)
        return pivots

    lines = []

    def emit(rule, src, tgt, amount, via=""):
        if amount == 0:
            return
        lines.append(f"{rule};{src};{tgt};{via};{amount.numerator}/{amount.denominator}")

    balance = {}
    for v in rotation:
        balance[f"v{v}"] = Fraction(deg[v] - 4)
    for idx in range(len(faces)):
        balance[f"f{idx}"] = Fraction(len(faces[idx]) - 4)

    def emit_and_move(rule, src, tgt, amount, via=""):
        emit(rule, src, tgt, amount, via)
        balance[src] -= amount
        balance[tgt] += amount

    # R1-R5, scanned face by face
    for idx in range(len(faces)):
        fsize = len(faces[idx])
        pivots = special_pivots(idx)
        for t in tails(idx):
            if t in false_vertices:
                continue
            d = deg[t]
            if d == 4 and fsize == 3 and t in pivots:
                emit_and_move("R1", f"v{t}", f"f{idx}", Fraction(1, 6))
            elif d == 5 and fsize == 3:
                amt = Fraction(3, 10) if t in pivots else Fraction(1, 5)
                emit_and_move("R2", f"v{t}", f"f{idx}", amt)
            elif d == 6 and fsize == 3:
                amt = Fraction(7, 18) if t in pivots else Fraction(1, 3)
                emit_and_move("R3", f"v{t}", f"f{idx}", amt)
            elif d == 7 and fsize == 3 and is_false_face(idx):
                emit_and_move("R4", f"v{t}", f"f{idx}", Fraction(1, 2))
            elif d >= 8:
                emit_and_move("R5", f"v{t}", f"f{idx}", Fraction(d - 4, d))

    # R6, scanned crossing by crossing over all four corner labelings
    for x in sorted(false_vertices):
        for u in rotation[x]:
            w = rotation[x][(rotation[x].index(u) + 1) % 4]
            src_face = face_of[(u, x)]
            if min(deg[u], deg[w]) < 9:
                continue
            ufar, wfar = opposite(x, u), opposite(x, w)
            beyond_ufar = face_of[(x, ufar)]  # adjacent corner face touching ufar
            beyond_wfar = face_of[(x, u)]     # adjacent corner face touching wfar
            src, via = f"f{src_face}", f"v{x}"
            m = min(deg[u], deg[w])
            if m >= 24:
                if deg[ufar] == 3 and deg[wfar] == 3:
                    emit_and_move("R6.1", src, f"f{beyond_ufar}", Fraction(1, 6), via)
                    emit_and_move("R6.1", src, f"f{beyond_wfar}", Fraction(1, 6), via)
                    emit_and_move("R6.1", src, f"v{ufar}", Fraction(1, 6), via)
                    emit_and_move("R6.1", src, f"v{wfar}", Fraction(1, 6), via)
                elif deg[ufar] == 3 and deg[wfar] >= 4:
                    emit_and_move("R6.1", src, f"f{beyond_ufar}", Fraction(1, 3), via)
                    emit_and_move("R6.1", src, f"v{ufar}", Fraction(1, 3), via)
                elif deg[wfar] == 3 and deg[ufar] >= 4:
                    emit_and_move("R6.1", src, f"f{beyond_wfar}", Fraction(1, 3), via)
                    emit_and_move("R6.1", src, f"v{wfar}", Fraction(1, 3), via)
                continue
            if m >= 12:
                rule, small, one_sided, big = "R6.2", Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)
            elif m >= 10:
                rule, small, one_sided, big = "R6.3", Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)
            else:
                rule, small, one_sided, big = "R6.4", Fraction(1, 18), Fraction(1, 9), Fraction(5, 18)
            if deg[ufar] > 6 and deg[wfar] > 6:
                continue
            if len(faces[src_face]) == 3:
                if deg[ufar] <= 6 and deg[wfar] <= 6:
                    emit_and_move(rule, src, f"f{beyond_ufar}", small, via)
                    emit_and_move(rule, src, f"f{beyond_wfar}", small, via)
                elif deg[ufar] <= 6:
                    emit_and_move(rule, src, f"f{beyond_ufar}", one_sided, via)
                else:
                    emit_and_move(rule, src, f"f{beyond_wfar}", one_sided, via)
            else:
                emit_and_move(rule, src, f"f{beyond_ufar}", big, via)
                emit_and_move(rule, src, f"f{beyond_wfar}", big, via)

    # R7, from the balances accumulated so far
    for idx in range(len(faces)):
        if len(faces[idx]) > 4:
            continue
        takers = [t for t in tails(idx) if t not in false_vertices and deg[t] <= 4]
        if not takers:
            continue
        share = balance[f"f{idx}"] / len(takers)
        for t in takers:
            emit_and_move("R7", f"f{idx}", f"v{t}", share)

    # R8: prepay 3-vertices, then split over true 4-vertices
    for idx in range(len(faces)):
        if len(faces[idx]) < 5:
            continue
        for t in tails(idx):
            if deg[t] == 3:
                emit_and_move("R8", f"f{idx}", f"v{t}", Fraction(2, 3))
        takers = [t for t in tails(idx) if t not in false_vertices and deg[t] == 4]
        if not takers:
            continue
        share = balance[f"f{idx}"] / len(takers)
        for t in takers:
            emit_and_move("R8", f"f{idx}", f"v{t}", share)

    assert sum(balance.values(), Fraction(0)) == -8
    return lines, balance


def naive_audit(rotation, false_vertices, final_charges, transfers) -> dict:
    """The audit's report fields, recomputed transfer by transfer.

    Each flow and payment is a running `Fraction` sum, accumulated one
    transfer at a time, and every gate is re-derived from the raw
    rotation. Transfers are read through their documented attributes
    (rule, source, target, via, amount), with elements as ("v", id) or
    ("f", face index). Returns face_flow as {face: (received_heavy,
    sent_via_false)}, crossing_flow as (face, via, inflow, outflow)
    tuples, checks as (name, instances, failures) tuples and the sorted
    negative elements.
    """
    deg = {v: len(r) for v, r in rotation.items()}
    faces = naive_faces(rotation)
    tails = [[u for u, _ in walk] for walk in faces]
    r5 = lambda d: Fraction(d - 4, d)  # noqa: E731

    initial_total = Fraction(sum(d - 4 for d in deg.values()) + sum(len(w) - 4 for w in faces))
    final_total = sum(final_charges.values(), Fraction(0))

    received_heavy = {i: Fraction(0) for i in range(len(faces))}
    sent_via = {i: Fraction(0) for i in range(len(faces))}
    routed = {}
    payments = {}
    for t in transfers:
        if t.rule == "R5" and deg[t.source[1]] >= 9:
            received_heavy[t.target[1]] += t.amount
        elif t.rule.startswith("R6"):
            sent_via[t.source[1]] += t.amount
            key = (t.source[1], t.via)
            routed[key] = routed.get(key, Fraction(0)) + t.amount
        elif t.rule in ("R7", "R8") and t.target[0] == "v":
            key = (t.source[1], t.target[1])
            payments[key] = payments.get(key, Fraction(0)) + t.amount

    inflow = {}
    for i, walk in enumerate(faces):
        for j, (v, nxt) in enumerate(walk):
            prev = walk[j - 1][0]
            if v in false_vertices and min(deg[prev], deg[nxt]) >= 9:
                inflow[(i, v)] = inflow.get((i, v), Fraction(0)) + r5(deg[prev]) + r5(deg[nxt])
    crossing_flow = [
        (f, v, inflow.get((f, v), Fraction(0)), routed.get((f, v), Fraction(0)))
        for f, v in sorted(set(inflow) | set(routed))
    ]

    def paid(i, v):
        return payments.get((i, v), Fraction(0))

    drift = () if final_total == initial_total else (f"total drifted from {initial_total} to {final_total}",)
    checks = [("conservation", 1, drift)]

    failures, instances = [], 0
    for i in range(len(faces)):
        got, out = received_heavy[i], sent_via[i]
        if len(faces[i]) >= 4:
            instances += 1
            if got < out:
                failures.append(f"f{i}: received {got} < routed out {out}")
        elif out > 0:
            instances += 1
            if got < out + 1:
                failures.append(f"f{i}: received {got}, needs routed out {out} plus 1")
    checks.append(("face-balance", instances, tuple(failures)))

    failures = [
        f"f{f} via v{v}: inflow {fin} < 2 * outflow {fout}"
        for f, v, fin, fout in crossing_flow
        if fout > 0 and fin < 2 * fout
    ]
    checks.append(("crossing-margin", len(crossing_flow), tuple(failures)))

    for small, bound, floor in ((3, 24, Fraction(2, 3)), (4, 12, Fraction(1, 3))):
        failures, instances = [], 0
        for i, ts in enumerate(tails):
            if len(ts) != 3:
                continue
            for j, v in enumerate(ts):
                if v in false_vertices or deg[v] != small:
                    continue
                if deg[ts[(j + 1) % 3]] >= bound and deg[ts[(j + 2) % 3]] >= bound:
                    instances += 1
                    if paid(i, v) < floor:
                        failures.append(f"f{i} paid v{v} {paid(i, v)}, needs {floor}")
        checks.append((f"triangle-pays-{small}-vertex", instances, tuple(failures)))

    failures, instances = [], 0
    for i, ts in enumerate(tails):
        if len(ts) != 4 or sum(1 for t in ts if t in false_vertices) > 1:
            continue

        def heavy_around(j, bound, ts=ts):
            return all(u in false_vertices or deg[u] >= bound for u in (ts[j - 1], ts[(j + 1) % 4]))

        if any(deg[t] == 3 for t in ts):
            anchored = any(deg[v] == 3 and heavy_around(j, 24) for j, v in enumerate(ts))
            due = [v for v in ts if v not in false_vertices and deg[v] <= 4]
            floor = Fraction(5, 12)
        else:
            anchored = any(
                v not in false_vertices and deg[v] == 4 and heavy_around(j, 12)
                for j, v in enumerate(ts)
            )
            due = [v for v in ts if v not in false_vertices and deg[v] == 4]
            floor = Fraction(1, 3)
        if anchored:
            instances += 1
            for v in dict.fromkeys(due):
                if paid(i, v) < floor:
                    failures.append(f"f{i} paid v{v} {paid(i, v)}, needs {floor}")
    checks.append(("quad-face-payments", instances, tuple(failures)))

    failures, instances = [], 0
    for i, ts in enumerate(tails):
        if len(ts) < 5:
            continue
        threes = sum(1 for t in ts if deg[t] == 3)
        quads = [t for t in ts if t not in false_vertices and deg[t] == 4]
        if not quads or threes + len(quads) > len(ts) // 2:
            continue
        instances += 1
        for v in dict.fromkeys(quads):
            if paid(i, v) < Fraction(1, 3):
                failures.append(f"f{i} paid v{v} {paid(i, v)}, needs 1/3")
    checks.append(("big-face-payments", instances, tuple(failures)))

    negative = sorted((el, q) for el, q in final_charges.items() if q < 0)
    return {
        "initial_total": initial_total,
        "final_total": final_total,
        "face_flow": {i: (received_heavy[i], sent_via[i]) for i in range(len(faces))},
        "crossing_flow": crossing_flow,
        "checks": checks,
        "negative_elements": negative,
    }
