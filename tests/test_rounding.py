import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab.dyadic import (
    dy_ceil,
    dy_floor,
    dy_from_float,
    dy_round_nearest,
    dy_to_float,
    dy_trunc,
    dy_ulp,
)
from srlab.rounding import (
    FpFormat,
    SubstrateRangeError,
    decompose,
    is_representable,
    round_down,
    round_nearest,
    round_nearest_array,
    round_up,
    truncate,
    ulp,
)

from conftest import random_substrate_values, substrate_floats

P2 = FpFormat(2)
P4 = FpFormat(4)
P11 = FpFormat(11)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e60, max_value=1e60
).filter(lambda x: x == 0.0 or abs(x) > 1e-60)


def test_decompose_examples():
    d = decompose(1.25)
    assert (d.sign, d.exponent, d.significand) == (0, 0, 1.25)
    d = decompose(-3.0)
    assert (d.sign, d.exponent, d.significand) == (1, 1, 1.5)
    d = decompose(0.5)
    assert (d.sign, d.exponent, d.significand) == (0, -1, 1.0)


def test_decompose_rejects_non_finite():
    for bad in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            decompose(bad)


@given(finite_floats.filter(lambda x: x != 0.0))
def test_decompose_reconstructs_bit_exactly(x):
    d = decompose(x)
    assert 1.0 <= d.significand < 2.0
    assert d.value == x


def test_ulp_examples():
    assert ulp(1.0, P11) == 2.0 ** -10
    assert ulp(1.25, P2) == 0.5
    assert ulp(-7.0, P4) == 0.5


def test_ulp_zero_is_domain_error():
    with pytest.raises(ValueError):
        ulp(0.0, P11)


def test_round_down_up_examples():
    assert round_down(1.25, P2) == 1.0
    assert round_up(1.25, P2) == 1.5
    assert round_down(1.5, P2) == 1.5 == round_up(1.5, P2)
    assert round_down(-1.25, P2) == -1.5
    assert round_up(-1.25, P2) == -1.0


def test_truncate_examples():
    assert truncate(1.3125, 3) == 1.25
    assert truncate(1.3125, 5) == 1.3125
    assert truncate(-1.3125, 3) == -1.25


def test_round_nearest_examples():
    assert round_nearest(1.375, P2) == 1.5
    assert round_nearest(1.25, P2) == 1.0  # tie, even candidate
    assert round_nearest(2.25, P2) == 2.0


def test_is_representable_examples():
    assert is_representable(1.5, P2)
    assert not is_representable(1.25, P2)
    assert is_representable(0.0, P2)


def test_zero_short_circuits():
    assert round_down(0.0, P2) == 0.0
    assert round_up(0.0, P2) == 0.0
    assert round_nearest(0.0, P2) == 0.0
    assert truncate(0.0, 7) == 0.0


def test_overflow_is_range_error():
    # 1.7e308 sits in the top binade; its p=2 upper neighbor is 2**1024
    with pytest.raises(SubstrateRangeError):
        round_up(1.7e308, P2)
    with pytest.raises(SubstrateRangeError):
        round_down(-1.7e308, P2)


def test_subnormal_output_is_range_error():
    x = math.ldexp(1.0 + 2.0 ** -13, -1030)  # substrate subnormal binade
    with pytest.raises(SubstrateRangeError):
        round_down(x, P11)
    with pytest.raises(SubstrateRangeError):
        ulp(math.ldexp(1.0, -1020), P11)  # unit would fall below 2**-1022


@given(finite_floats, st.integers(min_value=2, max_value=53))
@settings(max_examples=300)
def test_enclosure(x, p):
    fmt = FpFormat(p)
    lo, hi = round_down(x, fmt), round_up(x, fmt)
    assert lo <= x <= hi
    assert is_representable(lo, fmt) and is_representable(hi, fmt)
    if is_representable(x, fmt):
        assert lo == x == hi
    else:
        assert hi - lo == ulp(x, fmt)
        assert hi == lo + ulp(x, fmt)


@given(finite_floats, st.integers(min_value=2, max_value=53))
@settings(max_examples=300)
def test_truncate_matches_signed_round_down(x, p):
    fmt = FpFormat(p)
    expect = math.copysign(round_down(abs(x), fmt), x) if x != 0.0 else x
    assert truncate(x, p) == expect


@given(
    finite_floats,
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=16),
)
@settings(max_examples=300)
def test_monotone_refinement(x, p, r1, dr):
    r2 = r1 + dr
    if p + r2 > 53:
        return
    assert abs(x - truncate(x, p + r2)) <= abs(x - truncate(x, p + r1))


@given(finite_floats.filter(lambda x: x != 0.0), st.integers(min_value=2, max_value=53))
@settings(max_examples=300)
def test_round_nearest_error_bound(x, p):
    fmt = FpFormat(p)
    y = round_nearest(x, fmt)
    u = fmt.unit_roundoff
    assert abs(y - x) <= abs(x) * (u / (2.0 + u)) * (1 + 1e-15)
    assert y in (round_down(x, fmt), round_up(x, fmt))


@given(substrate_floats, st.integers(min_value=2, max_value=53))
@example(sys.float_info.max, 2)  # rounds up to 2**1024
@example(-sys.float_info.max, 11)
@example(-0.0, 11)
@example(5e-324, 2)  # substrate subnormal, on the grid
@example(math.ldexp(3.0, -1024), 2)  # substrate subnormal tie
@example(math.ldexp(2.0 ** 52 - 1, -1074), 11)  # rounds up to 2**-1022
# the edges of the Veltkamp split guard 2**-960 < |x| < 2**960, and the
# substrate neighbors on either side of each edge
@example(math.ldexp(1.0, -960), 11)
@example(-math.ldexp(1.0, -960), 11)
@example(math.nextafter(math.ldexp(1.0, -960), 0.0), 2)
@example(math.nextafter(math.ldexp(1.0, -960), math.inf), 2)
@example(-math.nextafter(math.ldexp(1.0, -960), 0.0), 24)
@example(-math.nextafter(math.ldexp(1.0, -960), math.inf), 24)
@example(math.ldexp(1.0, 960), 11)
@example(-math.ldexp(1.0, 960), 11)
@example(math.nextafter(math.ldexp(1.0, 960), 0.0), 2)  # rounds up to 2**960
@example(math.nextafter(math.ldexp(1.0, 960), math.inf), 2)
@example(-math.nextafter(math.ldexp(1.0, 960), 0.0), 52)
@example(-math.nextafter(math.ldexp(1.0, 960), math.inf), 52)
# exact ties: to the even neighbor, below and above
@example(1.25, 2)
@example(-1.75, 2)
@example(1.0 + 2.0 ** -52, 52)
@example(-(1.0 + 3 * 2.0 ** -52), 52)
# p = 53 keeps every value; the split constant is 2.0 there
@example(1.0 / 3.0, 53)
@example(-math.ldexp(1.0 / 3.0, 959), 53)
@settings(max_examples=1000)
def test_round_nearest_matches_dyadic_oracle(x, p):
    fmt = FpFormat(p)
    v = dy_from_float(x)
    want = dy_round_nearest(v, p)
    if want == v:  # zero or on the grid: x itself, signed zero kept
        y = round_nearest(x, fmt)
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)
    elif -1022 <= want.exponent <= 1023:
        assert round_nearest(x, fmt) == dy_to_float(want)
    else:
        with pytest.raises(SubstrateRangeError):
            round_nearest(x, fmt)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_round_nearest_rejects_non_finite(x):
    with pytest.raises(ValueError):
        round_nearest(x, P11)



def _scalar_loop(xs, fmt):
    try:
        return [round_nearest(x, fmt) for x in xs]
    except (ValueError, SubstrateRangeError) as exc:
        return exc


@given(
    st.lists(
        st.one_of(substrate_floats, st.sampled_from((math.inf, -math.inf, math.nan))),
        max_size=12,
    ),
    st.integers(min_value=2, max_value=53),
)
@example([1.0, 1.375, 1.25, 2.25, -1.75, 0.0, -0.0], 2)  # ties to even, signed zero
@example([1.0, sys.float_info.max], 2)  # carries to 2**1024
@example([5e-324, math.ldexp(3.0, -1024)], 2)  # subnormals: on the grid, a tie
@example([math.ldexp(2.0 ** 52 - 1, -1074)], 11)  # subnormal rounding up to 2**-1022
@example([1.5, math.nan, math.inf], 53)
@settings(max_examples=500)
def test_round_nearest_array_matches_scalar_loop(xs, p):
    fmt = FpFormat(p)
    want = _scalar_loop(xs, fmt)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as exc:
            round_nearest_array(xs, fmt)
        assert str(exc.value) == str(want)
    else:
        got = round_nearest_array(xs, fmt).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_oracle_equivalence_bulk():
    # every primitive agrees bit-exactly with the integer-shift oracle
    values = random_substrate_values(2024, 100_000, emin=-300, emax=300)
    ps = (2, 5, 11, 24, 53)
    for i, x in enumerate(values):
        p = ps[i % len(ps)]
        fmt = FpFormat(p)
        v = dy_from_float(x)
        assert round_down(x, fmt) == dy_to_float(dy_floor(v, p))
        assert round_up(x, fmt) == dy_to_float(dy_ceil(v, p))
        assert round_nearest(x, fmt) == dy_to_float(dy_round_nearest(v, p))
        assert truncate(x, p) == dy_to_float(dy_trunc(v, p))
        assert ulp(x, fmt) == dy_to_float(dy_ulp(v, p))
        assert is_representable(x, fmt) == (dy_to_float(dy_floor(v, p)) == x)


def test_fpformat_validation():
    with pytest.raises(ValueError):
        FpFormat(1)
    with pytest.raises(ValueError):
        FpFormat(54)
    assert FpFormat(11).unit_roundoff == 2.0 ** -10
