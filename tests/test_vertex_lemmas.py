"""The rule table's vertex lemmas, checked by enumeration.

A true vertex p of degree 5, 6 or 7 only pays charge (R2-R4), so its
final charge k - 4 - paid depends on two things only: which of its k
neighbors are false, and which of its k corners are 3-faces. Corner i
lies between neighbors i and i + 1. A 3-face holds at most one false
vertex, so a pattern with two false neighbors on one 3-face is skipped.

A 5- or 6-vertex pays the special amount of `R2_R3_AMOUNTS[k]` to a
3-face that may be special with pivot p, and the plain amount to every
other 3-face; only a 3-face with a false neighbor x can be special. A
7-vertex pays `R4_AMOUNT` to each 3-face with a false neighbor.

With no light edge at p, a 3-face at x is special only when p's other
corner at x is not a 3-face: otherwise the far end of the partner's
crossing edge is a true neighbor of p, heavier than the special bound,
which equals the light bound.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from oneplane.discharging import R2_R3_AMOUNTS, R4_AMOUNT


def _patterns(k: int):
    """(false marks on the k neighbors, 3-face marks on the k corners)."""
    for false in product((False, True), repeat=k):
        for triangle in product((False, True), repeat=k):
            if not any(triangle[i] and false[i] and false[(i + 1) % k] for i in range(k)):
                yield false, triangle


def _paid(k: int, false, triangle, no_light_edge: bool) -> Fraction:
    paid = Fraction(0)
    for i in range(k):
        if not triangle[i]:
            continue
        at_false = [x for x in (i, (i + 1) % k) if false[x]]
        if k == 7:
            paid += R4_AMOUNT if at_false else 0
            continue
        _rule, special, plain = R2_R3_AMOUNTS[k]
        may_be_special = bool(at_false)
        if at_false and no_light_edge:
            x = at_false[0]
            other = (x - 1) % k if x == i else x  # p's other corner at x
            may_be_special = not triangle[other]
        paid += special if may_be_special else plain
    return paid


def least_final_charge(k: int, no_light_edge: bool) -> Fraction:
    """The least k - 4 - paid over every pattern of a k-vertex."""
    return min(k - 4 - _paid(k, f, t, no_light_edge) for f, t in _patterns(k))


@pytest.mark.parametrize(
    "k, any_pattern, no_light_edge",
    [(5, Fraction(-2, 5), 0), (6, Fraction(-1, 3), 0), (7, 0, 0)],
)
def test_least_final_charge_of_a_paying_vertex(k, any_pattern, no_light_edge):
    assert least_final_charge(k, no_light_edge=False) == any_pattern
    assert least_final_charge(k, no_light_edge=True) == no_light_edge

