import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab import dyadic
from srlab.dyadic import (
    dy_ceil,
    dy_exponent,
    dy_floor,
    dy_from_float,
    dy_q,
    dy_round_nearest,
    dy_to_float,
    dy_trunc,
    dy_ulp,
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
    assert v == Fraction(5, 4)
    assert dy_from_float(0.0) == 0
    assert dy_to_float(dy_from_float(-1.3125)) == -1.3125


@given(finite_floats)
@settings(max_examples=500)
def test_round_trip_identity(x):
    assert dy_to_float(dy_from_float(x)) == x


def test_zero_exponent_and_non_finite_float_are_refused():
    with pytest.raises(ValueError, match="zero has no normalized exponent"):
        dy_exponent(Fraction(0))
    with pytest.raises(ValueError, match="finite value required"):
        dy_from_float(math.inf)


def test_to_float_rejects_unrepresentable():
    with pytest.raises(ValueError):
        dy_to_float(Fraction((1 << 54) + 1))  # 55 significant bits
    with pytest.raises(ValueError):
        dy_to_float(Fraction(2**1024))  # above the binade ceiling
    dbl_max = Fraction(sys.float_info.max)
    for v in (Fraction(2**53 + 1), Fraction(1, 2**1075), -Fraction(1, 2**1075),
              dbl_max + Fraction(2**969), dbl_max + Fraction(2**970), Fraction(1, 3)):
        with pytest.raises(ValueError):  # rounds to a float, to zero, or overflows
            dy_to_float(v)


def test_to_float_keeps_the_binary64_extremes():
    assert dy_to_float(Fraction(1, 2**1074)) == 5e-324
    assert dy_to_float(-Fraction(sys.float_info.max)) == -sys.float_info.max
    assert dy_to_float(Fraction(0)) == 0.0


_ORACLE = {
    "dy_exponent": dy_exponent,
    "dy_to_float": dy_to_float,
    "dy_floor": lambda v: dy_floor(v, 11),
    "dy_ceil": lambda v: dy_ceil(v, 11),
    "dy_trunc": lambda v: dy_trunc(v, 11),
    "dy_round_nearest": lambda v: dy_round_nearest(v, 11),
    "dy_ulp": lambda v: dy_ulp(v, 11),
    "dy_q": lambda v: dy_q(v, 11),
    "dy_q r": lambda v: dy_q(v, 11, 3),
}


@pytest.mark.parametrize("name", list(_ORACLE))
def test_oracle_refuses_a_fraction_that_is_not_dyadic(name):
    with pytest.raises(ValueError):
        _ORACLE[name](Fraction(1, 3))
    _ORACLE[name](Fraction(5, 4))  # a dyadic one passes


def test_exact_values_are_fractions():
    v = dy_from_float(1.3)
    values = [v, dy_from_float(0.0), exact_sum([0.5, 0.1]), exact_sum([]),
              exact_dot([1.5, 0.1], [2.0, 3.0]), exact_dot([], []), dy_q(v, 11, 3)]
    values += [_ORACLE[name](v) for name in ("dy_floor", "dy_ceil", "dy_trunc",
                                             "dy_round_nearest", "dy_ulp")]
    assert [type(x) for x in values] == [Fraction] * len(values)


def test_oracle_shares_only_the_integer_check_with_srlab():
    # the oracle must not reuse the float primitives it checks
    tree = ast.parse(Path(dyadic.__file__).read_text(encoding="utf-8"))
    shared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            shared |= {a.name for a in node.names if a.name.split(".")[0] == "srlab"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "srlab"):
            shared |= {a.name for a in node.names}
    assert shared == {"check_int"}


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
    assert exact_sum(vals) == sum(Fraction(v) for v in vals)
    a, b = [1.5, 2.5], [2.0, -1.0]
    assert exact_dot(a, b) == Fraction(3) - Fraction(5, 2)
    with pytest.raises(ValueError):
        exact_dot([1.0], [1.0, 2.0])


@given(st.lists(substrate_floats, max_size=12))
@settings(max_examples=300)
def test_exact_sum_equals_fraction_sum(vals):
    assert exact_sum(vals) == sum(map(Fraction, vals), Fraction(0))


@given(st.lists(st.tuples(substrate_floats, substrate_floats), max_size=12))
@settings(max_examples=300)
def test_exact_dot_equals_fraction_sum(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    want = sum((Fraction(x) * Fraction(y) for x, y in pairs), Fraction(0))
    assert exact_dot(a, b) == want


def test_exact_references_edge_cases():
    assert exact_sum([]) == 0 == exact_dot([], [])
    assert exact_sum([0.0, -0.0]) == 0
    wide = [1e308, -5e-324, 0.0, -1e308, 3.0, 2.0 ** -1074]
    assert exact_sum(wide) == dy_from_float(3.0)
    assert exact_dot(wide, [1.0, 4.0, 7.0, 1.0, -1.0, 4.0]) == dy_from_float(-3.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            exact_sum([1.0, bad])
        with pytest.raises(ValueError):  # a float64 array skips only the exactness check
            exact_sum(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            exact_dot([1.0, 2.0], [bad, 1.0])


def _fraction_sum(terms):
    return sum(terms, Fraction(0))


def test_exact_sum_at_scale_needs_the_limbs():
    # full 53-bit mantissas at one exponent: 10**4 of them in one unsplit
    # bucket would pass 2**63 in int64 and round in float64; the limbs are
    # each below 2**27
    big = float((2**53 - 1) * 2**40)
    vals = [big, -big] * 5000 + [big] * 3
    assert exact_sum(vals) == 3 * Fraction(big)
    assert exact_sum(vals[:10003]) == _fraction_sum(map(Fraction, vals[:10003]))
    same_sign = [big] * 10000 + [2.0 ** -30]
    assert exact_sum(same_sign) == _fraction_sum(map(Fraction, same_sign))


def test_exact_sum_over_the_whole_binary64_range():
    dbl_max = sys.float_info.max
    vals = [dbl_max, 5e-324, -0.0, 0.0, 2.0 ** -1022, -(2.0 ** -1074) * 12345,
            1.0, -dbl_max, dbl_max, 2.0 ** -1073 + 2.0 ** -1074, -3.5e-310, 1e300]
    assert exact_sum(vals) == _fraction_sum(map(Fraction, vals))
    assert exact_sum([-dbl_max, -dbl_max]) == -2 * Fraction(dbl_max)
    b = vals[::-1]
    want = _fraction_sum(Fraction(x) * Fraction(y) for x, y in zip(vals, b))
    assert exact_dot(vals, b) == want


def test_exact_dot_of_full_mantissas():
    rng = np.random.default_rng(5)
    sig = rng.integers(2**52, 2**53, size=(2, 3000))
    signs = rng.choice([-1, 1], size=(2, 3000))
    exps = rng.integers(-1100, 970, size=(2, 3000))
    a, b = (np.ldexp((signs * sig).astype(np.float64), exps)).tolist()
    a[:8] = [(2.0**53 - 1) * 2.0**900] * 8
    b[:8] = [-(2.0**53 - 1) * 2.0**-1020, 2.0**-1074] * 4
    want = _fraction_sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
    assert exact_dot(a, b) == want


def test_exact_sum_in_chunks(monkeypatch):
    # a bucket of float64 limb sums stays exact for 2**25 terms; chunks of
    # 7 terms take the same path a huge input would
    monkeypatch.setattr(dyadic, "_CHUNK", 7)
    vals = [float((2**53 - 1) * 2**40), 0.1, -3e-300, 2.0**-1074] * 13
    assert exact_sum(vals) == _fraction_sum(map(Fraction, vals))
    want = _fraction_sum(Fraction(x) * Fraction(x) for x in vals)
    assert exact_dot(vals, vals) == want


# a numpy integer scalar compares with a float as a float, so == alone misses
# that 2**53 + 1 does not survive the conversion
@pytest.mark.parametrize(
    "bad",
    [2**53 + 1, -(2**60 + 3), 2**1024, "1.5", np.int64(2**53 + 1), np.uint64(2**64 - 1)],
)
def test_exact_references_refuse_values_that_are_not_binary64(bad):
    with pytest.raises(ValueError):
        exact_sum([1.0, bad])
    with pytest.raises(ValueError):
        exact_dot([1.0, bad], [1.0, 1.0])
    with pytest.raises(ValueError):
        exact_dot([1.0, 1.0], [bad, 1.0])
    with pytest.raises(ValueError):  # a numpy int array too
        exact_sum(np.array([1, 2**53 + 1]))
    # an int that is a binary64 value is summed as one
    assert exact_sum([1.0, 2**60, 3]) == 2**60 + 4


def _fraction_rel_error(value, exact):
    return float(abs(Fraction(value) - exact) / abs(exact))


wide_floats = st.builds(
    lambda sig, exp: math.ldexp(sig, exp),
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.integers(-1126, 971),
)


@given(wide_floats, st.lists(wide_floats, min_size=1, max_size=4))
@example(1e308, [5e-324])  # the ratio overflows
@example(2.0**1000, [2.0**1000, 2.0**-100])  # the ratio 2**-1100 is subnormal
@example(-3.0, [1.5, 1.5])
@settings(max_examples=400)
def test_rel_error_keeps_the_fraction_bits(value, terms):
    exact = exact_sum(terms)
    if exact == 0:
        return
    try:
        want = _fraction_rel_error(value, exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            rel_error(value, exact)
        return
    got = rel_error(value, exact)
    assert math.copysign(1.0, got) == 1.0 and got.hex() == want.hex()


def test_rel_error_edges():
    tiny = dy_from_float(5e-324)
    with pytest.raises(OverflowError):  # 2**1024 / 2**-1074 is no float
        _fraction_rel_error(1e308, tiny)
    with pytest.raises(OverflowError):
        rel_error(1e308, tiny)
    huge = dy_from_float(sys.float_info.max)
    for value in (5e-324, 0.0, -sys.float_info.max, 1e-300):
        assert rel_error(value, huge).hex() == _fraction_rel_error(value, huge).hex()
    assert rel_error(sys.float_info.max, huge) == 0.0
    for bad, error in ((math.inf, OverflowError), (-math.inf, OverflowError),
                       (math.nan, ValueError)):
        with pytest.raises(error):
            Fraction(bad)
        with pytest.raises(error):
            rel_error(bad, huge)


def test_rel_error():
    assert rel_error(1.0, dy_from_float(1.0)) == 0.0
    assert rel_error(1.5, dy_from_float(1.0)) == 0.5
    assert rel_error(1.0, 0) == math.inf
    assert rel_error(0.0, 0) == 0.0
