"""R6's face-side lemmas, checked by enumeration.

A face f sending through the false vertex v at the corner between A and
B routes out pi- = the amount `r6_route` picks, times its number of
targets. Its income pi+ at that corner is the R5 amount (d - 4)/d of
each of A and B. Two audit gates rest on this: `crossing-margin` asks
pi+ >= 2 pi-, and `face-balance` asks a triangle {A, v, B}, whose only
heavy income is pi+, for pi+ >= pi- + 1.

The route reads A's and B's degrees only through the band of their
minimum m, so each band is checked at its least m with deg(A) = deg(B)
= m: (d - 4)/d grows with d, so that corner has the band's least pi+.
The far ends have degree 3 to 8, since the theorem's hypothesis is
minimum degree 3 and R6 reads a far end only as 3, at most 6, or more.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from oneplane import discharging
from oneplane.discharging import r6_route


def sending_patterns(least: int):
    """(sender degree, rule, pi+, pi-) for every sending corner of the
    band whose least m is `least`."""
    income = 2 * Fraction(least - 4, least)
    for far_a, far_b, sender in product(range(3, 9), range(3, 9), (3, 4)):
        route = r6_route(least, least, far_a, far_b, sender)
        if route is not None:
            rule, slots, amount = route
            yield sender, rule, income, amount * len(slots)


@pytest.mark.parametrize(
    "least, rule, margin_slack",
    [(24, "R6.1", Fraction(1, 3)), (12, "R6.2", 0), (10, "R6.3", 0), (9, "R6.4", 0)],
)
def test_each_band_keeps_the_crossing_margin_and_the_triangle_balance(least, rule, margin_slack):
    patterns = list(sending_patterns(least))
    assert {sender for sender, _, _, _ in patterns} == {3, 4}
    assert {r for _, r, _, _ in patterns} == {rule}
    # crossing-margin: pi+ >= 2 pi-, tight in every band but R6.1
    assert min(income - 2 * out for _, _, income, out in patterns) == margin_slack
    # face-balance on a triangle sender: pi+ >= pi- + 1, tight in every band
    assert min(income - out - 1 for sender, _, income, out in patterns if sender == 3) == 0


def test_a_larger_r6_4_amount_breaks_the_crossing_margin(monkeypatch):
    bands = list(discharging.R6_BANDS)
    least, rule, (both, one_sided, _) = bands[-1]
    assert (least, rule) == (9, "R6.4")
    bands[-1] = (least, rule, (both, one_sided, Fraction(1, 3)))  # up from 5/18
    monkeypatch.setattr(discharging, "R6_BANDS", tuple(bands))
    assert min(income - 2 * out for _, _, income, out in sending_patterns(9)) < 0
