import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.dyadic import (
    DY_ZERO,
    DyadicValue,
    dy_add,
    dy_from_float,
    dy_mul,
    dy_q,
    dy_to_float,
    exact_dot,
    exact_sum,
    rel_error,
)

from conftest import random_substrate_values, substrate_floats

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
)


def test_from_float_examples():
    v = dy_from_float(1.25)
    assert (v.sign, v.num, v.exp2) == (1, 5, -2)
    assert dy_from_float(0.0) == DY_ZERO
    assert dy_to_float(dy_from_float(-1.3125)) == -1.3125


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        DyadicValue(1, 6, 0)  # even num
    with pytest.raises(ValueError):
        DyadicValue(0, 3, 0)  # zero with nonzero num


@given(finite_floats)
@settings(max_examples=500)
def test_round_trip_identity(x):
    assert dy_to_float(dy_from_float(x)) == x


def test_to_float_rejects_unrepresentable():
    with pytest.raises(ValueError):
        dy_to_float(DyadicValue(1, (1 << 54) + 1, 0))  # 55 significant bits
    with pytest.raises(ValueError):
        dy_to_float(DyadicValue(1, 1, 1024))  # above the binade ceiling


def test_add_mul_examples():
    assert dy_to_float(dy_add(dy_from_float(1.25), dy_from_float(0.125))) == 1.375
    assert dy_to_float(dy_mul(dy_from_float(1.5), dy_from_float(1.5))) == 2.25
    x = dy_from_float(3.7)
    assert dy_add(x, DY_ZERO) == x


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_add_mul_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert dy_add(dy_from_float(a), dy_from_float(b)).as_fraction() == fa + fb
    assert dy_mul(dy_from_float(a), dy_from_float(b)).as_fraction() == fa * fb


def test_q_examples():
    v = dy_from_float(1.3125)
    assert dy_q(v, 2) == Fraction(5, 8)
    assert dy_q(v, 2, 1) == Fraction(1, 2)
    assert dy_q(dy_from_float(1.5), 2, 4) == 0
    assert dy_q(dy_from_float(1.5), 2) == 0


def test_q_negative_values_mirror():
    v = dy_from_float(-1.3125)
    assert dy_q(v, 2) == 1 - Fraction(5, 8)
    assert dy_q(v, 2, 3) == Fraction(3, 8)
    # magnitude truncates onto the grid: certain round-up (toward +inf)
    w = dy_from_float(-(1.0 + 2.0 ** -12))
    assert dy_q(w, 11, 1) == 1


def test_q_r_denominator_divides_2_to_r():
    values = random_substrate_values(7, 500)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        for r in (1, 3, 7, 12):
            q = dy_q(dy_from_float(x), p, r)
            assert 0 <= q <= 1
            assert (q * (1 << r)).denominator == 1


def test_q_r_converges_to_q():
    values = random_substrate_values(11, 200)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        v = dy_from_float(x)
        q_inf = dy_q(v, p)
        gaps = [abs(q_inf - dy_q(v, p, r)) for r in range(1, 53 - p + 1)]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0  # substrate values are exhausted at r = 53 - p
        for r, g in enumerate(gaps, start=1):
            assert g <= Fraction(1, 1 << r)


def test_exact_sum_and_dot():
    vals = [0.1, 0.2, 0.3, -0.6]
    assert exact_sum(vals).as_fraction() == sum(Fraction(v) for v in vals)
    a, b = [1.5, 2.5], [2.0, -1.0]
    assert exact_dot(a, b).as_fraction() == Fraction(3) - Fraction(5, 2)
    with pytest.raises(ValueError):
        exact_dot([1.0], [1.0, 2.0])


@given(st.lists(substrate_floats, max_size=12))
@settings(max_examples=300)
def test_exact_sum_equals_fraction_sum(vals):
    assert exact_sum(vals).as_fraction() == sum(map(Fraction, vals), Fraction(0))


@given(st.lists(st.tuples(substrate_floats, substrate_floats), max_size=12))
@settings(max_examples=300)
def test_exact_dot_equals_fraction_sum(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    want = sum((Fraction(x) * Fraction(y) for x, y in pairs), Fraction(0))
    assert exact_dot(a, b).as_fraction() == want


def test_exact_references_edge_cases():
    assert exact_sum([]) == DY_ZERO == exact_dot([], [])
    assert exact_sum([0.0, -0.0]) == DY_ZERO
    wide = [1e308, -5e-324, 0.0, -1e308, 3.0, 2.0 ** -1074]
    assert exact_sum(wide) == dy_from_float(3.0)
    assert exact_dot(wide, [1.0, 4.0, 7.0, 1.0, -1.0, 4.0]) == dy_from_float(-3.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            exact_sum([1.0, bad])
        with pytest.raises(ValueError):
            exact_dot([1.0, 2.0], [bad, 1.0])


def test_rel_error():
    assert rel_error(1.0, dy_from_float(1.0)) == 0.0
    assert rel_error(1.5, dy_from_float(1.0)) == 0.5
    assert rel_error(1.0, DY_ZERO) == math.inf
    assert rel_error(0.0, DY_ZERO) == 0.0
