import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab.dyadic import dy_ceil, dy_floor, dy_from_float, dy_q, dy_to_float
from srlab.rounding import (
    FpFormat,
    SubstrateRangeError,
    _check_finite,
    _split,
    round_down,
    round_up,
    truncate,
    ulp,
)
from srlab.sr import (
    IDEAL,
    RngStream,
    SrConfig,
    enumerate_distribution,
    q_r_numerator,
    rn_config,
    rn_op,
    sr_config,
    sr_op,
    sr_round,
    sr_round_traced,
    sr_sample,
)

from conftest import random_substrate_values, substrate_floats

GOLDEN_FIRST_WORD = 0x02F4BA6408E4D89B  # first 64 bits of stream (0, 0), frozen


def sr_round_comparison(x: float, cfg: SrConfig, rng) -> float:
    """Reference path: draw an r-bit uniform Z and round up iff Z < k.

    Distribution-equivalent to :func:`sr_round`; an independent formulation
    to check the carry-based mechanism against.
    """
    _check_finite(x)
    if x == 0.0:
        return x
    k = q_r_numerator(x, cfg)
    if k == 0:
        M, _ = _split(x)
        if M & cfg.mask_p == 0:
            return x
    z = rng.next_bits(cfg.r_bits)
    return round_up(x, cfg.fmt) if z < k else round_down(x, cfg.fmt)


class FixedStream:
    """Test double feeding predetermined draws to the rounding mechanism."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def next_bits(self, k):
        v = self.values[self.i]
        self.i += 1
        assert 0 <= v < (1 << k)
        return v


# ---------------------------------------------------------------- RngStream


def test_stream_reproducible():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    assert [a.next_bits(64) for _ in range(100)] == [b.next_bits(64) for _ in range(100)]


def test_stream_golden_value():
    assert RngStream(0, 0).next_bits(64) == GOLDEN_FIRST_WORD


def test_distinct_streams_differ():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    c = RngStream(124, 0)
    seq_a = [a.next_bits(64) for _ in range(8)]
    assert seq_a != [b.next_bits(64) for _ in range(8)]
    assert seq_a != [c.next_bits(64) for _ in range(8)]


def test_next_bits_range():
    rng = RngStream(9, 9)
    for k in (1, 7, 33, 64):
        for _ in range(200):
            assert 0 <= rng.next_bits(k) < (1 << k)
    with pytest.raises(ValueError):
        rng.next_bits(0)
    with pytest.raises(ValueError):
        rng.next_bits(65)


@pytest.mark.parametrize("k", [0, 65, -1])
def test_next_bits_bad_k_leaves_stream_unchanged(k):
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        rng.next_bits(k)
    assert rng.next_bits(64) == RngStream(0, 0).next_bits(64)
    # also after a draw, when the block is already served
    with pytest.raises(ValueError):
        rng.next_bits(k)
    fresh = RngStream(0, 0)
    fresh.next_bits(64)
    assert rng.next_bits(64) == fresh.next_bits(64)


def test_bits_array_matches_next_bits_loop():
    a = RngStream(77, 3)
    b = RngStream(77, 3)
    arr = a.bits_array(11, 10_000)
    loop = [b.next_bits(11) for _ in range(10_000)]
    assert [int(v) for v in arr] == loop
    # interleaving bulk and single draws stays aligned
    assert a.next_bits(11) == b.next_bits(11)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(1, 64), st.integers(0, 5000)),
        max_size=8,
    )
)
# single and bulk draws each finish a block the other left partly read
@example([(True, 64, 3000), (False, 64, 2000), (True, 64, 9000), (False, 64, 5000)])
@settings(max_examples=60, deadline=None)
def test_interleaved_draws_match_next_bits_loop(calls):
    # bits_array and next_bits share one block and one position, so any mix
    # of them, across refills of any size, reads the words of a plain loop
    a, b = RngStream(21, 4), RngStream(21, 4)
    for bulk, k, size in calls:
        if bulk:
            got = [int(v) for v in a.bits_array(k, size)]
        else:
            got = [a.next_bits(k) for _ in range(size)]
        assert got == [b.next_bits(k) for _ in range(size)]
    assert a.next_bits(64) == b.next_bits(64)


# ---------------------------------------------------------------- SrConfig


def test_config_validation():
    with pytest.raises(ValueError):
        sr_config(11, 0)
    with pytest.raises(ValueError):
        sr_config(11, 43)  # p + r > 53
    with pytest.raises(ValueError):
        SrConfig(FpFormat(11), 7, mode="nearest")
    cfg = sr_config(11)
    assert cfg.r == IDEAL and cfg.r_bits == 42
    assert sr_config(11, 7).label == "sr7"
    assert sr_config(11).label == "sr_ideal"
    assert rn_config(11).label == "rn"
    assert rn_config(53).label == "fp64"


# ------------------------------------------------------------ q_r numerator


def test_q_r_numerator_examples():
    assert q_r_numerator(1.3125, sr_config(2, 1)) == 1
    assert q_r_numerator(1.3125, sr_config(2, 3)) == 5
    assert q_r_numerator(1.5, sr_config(2, 4)) == 0


def test_q_r_numerator_matches_oracle():
    values = random_substrate_values(31, 400)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        for r in (1, 2, 5, 9):
            cfg = sr_config(p, r)
            k = q_r_numerator(x, cfg)
            assert Fraction(k, 1 << r) == dy_q(dy_from_float(x), p, r)


# ----------------------------------------------------------------- sr_round


def test_representable_is_deterministic_and_draws_nothing():
    cfg = sr_config(2, 3)
    rng = FixedStream([])  # any draw would raise IndexError
    assert sr_round(1.5, cfg, rng) == 1.5
    assert sr_round(-2.0, cfg, rng) == -2.0
    assert sr_round(0.0, cfg, rng) == 0.0


@given(substrate_floats, st.integers(2, 52), st.integers(0, 51), st.integers(0, (1 << 51) - 1))
@example(sys.float_info.max, 2, 0, 1)  # rounds up to 2**1024
@example(-sys.float_info.max, 11, 41, (1 << 42) - 1)  # rounds down to -2**1024
@example(-0.0, 11, 3, 0)
@example(5e-324, 2, 0, 1)  # substrate subnormal, on the grid
@example(math.ldexp(3.0, -1024), 2, 0, 1)  # substrate subnormal, off the grid
@example(math.ldexp(2.0 ** 52 - 1, -1074), 11, 41, (1 << 42) - 1)  # carries to 2**-1022
@settings(max_examples=1000)
def test_sr_round_matches_dyadic_oracle(x, p, r, z):
    cfg = sr_config(p, 1 + r % (53 - p))
    z %= 1 << cfg.r_bits
    rng = FixedStream([z])
    v = dy_from_float(x)
    lo, hi = dy_floor(v, p), dy_ceil(v, p)
    if lo == hi:  # zero or on the grid: x itself, signed zero kept, no draw
        y = sr_round(x, cfg, rng)
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)
        assert rng.i == 0
        return
    # k of the 2**r draws round up: the top k for x > 0, the bottom k for x < 0
    k = dy_q(v, p, cfg.r_bits) * (1 << cfg.r_bits)
    up = z >= (1 << cfg.r_bits) - k if x > 0 else z < k
    want = hi if up else lo
    if -1022 <= want.exponent <= 1023:
        assert sr_round(x, cfg, rng) == dy_to_float(want)
    else:
        with pytest.raises(SubstrateRangeError):
            sr_round(x, cfg, rng)
    assert rng.i == 1


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_sr_round_rejects_non_finite(x):
    rng = FixedStream([])
    with pytest.raises(ValueError):
        sr_round(x, sr_config(11, 3), rng)
    assert rng.i == 0


def test_enumeration_example():
    assert enumerate_distribution(1.3125, sr_config(2, 1)) == (1.0, 1.5, 1)
    assert enumerate_distribution(1.3125, sr_config(2, 3)) == (1.0, 1.5, 5)
    lo, hi, ups = enumerate_distribution(1.5, sr_config(2, 3))
    assert (lo, hi, ups) == (1.5, 1.5, 0)


def test_sr_round_agrees_with_enumeration_draw_by_draw():
    values = random_substrate_values(42, 120)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        for r in (1, 2, 4, 6):
            cfg = sr_config(p, r)
            lo, hi, ups = enumerate_distribution(x, cfg)
            outcomes = [sr_round(x, cfg, FixedStream([z])) for z in range(1 << r)]
            assert sum(1 for o in outcomes if o == hi and hi != lo) == ups
            assert all(o in (lo, hi) for o in outcomes)
            assert ups == q_r_numerator(x, cfg)


def test_comparison_path_distribution_equivalent():
    values = random_substrate_values(43, 60)
    for i, x in enumerate(values):
        p = (2, 11)[i % 2]
        for r in (1, 3, 5):
            cfg = sr_config(p, r)
            mech = sorted(sr_round(x, cfg, FixedStream([z])) for z in range(1 << r))
            comp = sorted(
                sr_round_comparison(x, cfg, FixedStream([z])) for z in range(1 << r)
            )
            assert mech == comp


def test_distribution_mean_is_truncation():
    # q*ceil + (1-q)*floor == truncate(x, p+r), exactly, for either sign
    values = random_substrate_values(44, 300)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        for r in (1, 3, 6):
            cfg = sr_config(p, r)
            lo, hi, ups = enumerate_distribution(x, cfg)
            m = 1 << r
            mean = Fraction(ups, m) * Fraction(hi) + Fraction(m - ups, m) * Fraction(lo)
            assert mean == Fraction(truncate(x, p + r))


def test_distribution_variance_identity():
    values = random_substrate_values(45, 200)
    fmtcache = {}
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        fmt = fmtcache.setdefault(p, FpFormat(p))
        for r in (1, 4):
            cfg = sr_config(p, r)
            lo, hi, ups = enumerate_distribution(x, cfg)
            m = 1 << r
            q = Fraction(ups, m)
            mean = q * Fraction(hi) + (1 - q) * Fraction(lo)
            var = q * (Fraction(hi) - mean) ** 2 + (1 - q) * (Fraction(lo) - mean) ** 2
            assert var == Fraction(ulp(x, fmt)) ** 2 * q * (1 - q)
            assert var <= Fraction(x) ** 2 * Fraction(fmt.unit_roundoff) ** 2 / 4


def test_ideal_limit_matches_exact_probability():
    values = random_substrate_values(46, 300)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        cfg = sr_config(p, IDEAL)
        k = q_r_numerator(x, cfg)
        assert Fraction(k, 1 << cfg.r_bits) == dy_q(dy_from_float(x), p)


def test_sign_symmetry():
    values = [abs(v) for v in random_substrate_values(47, 150)]
    for i, x in enumerate(values):
        p = (2, 8, 11)[i % 3]
        for r in (1, 3):
            cfg = sr_config(p, r)
            lo, hi, ups = enumerate_distribution(x, cfg)
            nlo, nhi, nups = enumerate_distribution(-x, cfg)
            # negation maps the outcome multiset pointwise
            assert (nlo, nhi) == (-hi, -lo)
            if lo == hi:
                assert nups == 0
            else:
                assert nups == (1 << r) - ups


def test_sr_sample_matches_single_draw_loop():
    cfg = sr_config(11, 5)
    x = 1.0 + 2.0 ** -13
    a = RngStream(5, 1)
    b = RngStream(5, 1)
    bulk = sr_sample(x, cfg, a, 5000)
    loop = [sr_round(x, cfg, b) for _ in range(5000)]
    assert [float(v) for v in bulk] == loop


def test_sr_sample_representable():
    cfg = sr_config(11, 5)
    out = sr_sample(2.0, cfg, RngStream(1, 1), 16)
    assert (out == 2.0).all()


# -------------------------------------------------------------------- ops


def test_sr_op_add_example():
    # 1 + 2**-12 at p=11: up-probability exactly 1/4 in the ideal limit
    cfg = sr_config(11, IDEAL)
    k = q_r_numerator(1.0 + 2.0 ** -12, cfg)
    assert Fraction(k, 1 << cfg.r_bits) == Fraction(1, 4)
    outs = {sr_op("add", 1.0, 2.0 ** -12, cfg, RngStream(0, i)) for i in range(64)}
    assert outs <= {1.0, 1.0 + 2.0 ** -10}


def test_sr_op_mul_example():
    cfg = sr_config(2, 2)
    lo, hi, ups = enumerate_distribution(1.5 * 1.5, cfg)
    assert (lo, hi, ups) == (2.0, 3.0, 1)  # q = 1/4


def test_sr_op_exact_result_is_deterministic():
    cfg = sr_config(2, 3)
    assert sr_op("add", 1.0, 1.0, cfg, FixedStream([])) == 2.0


def test_sr_op_validates_operands():
    cfg = sr_config(2, 3)
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        sr_op("add", 1.25, 1.0, cfg, rng)  # 1.25 not a p=2 value
    with pytest.raises(ValueError):
        sr_op("div", 1.0, 0.0, cfg, rng)
    with pytest.raises(ValueError):
        sr_op("sqrt", -1.0, 0.0, cfg, rng)
    with pytest.raises(ValueError):
        sr_op("pow", 1.0, 1.0, cfg, rng)


def test_rn_op_examples():
    assert rn_op("add", 2048.0, 1.0, FpFormat(11)) == 2048.0  # tie to even
    assert rn_op("add", 1.0, 1.0, FpFormat(2)) == 2.0
    assert rn_op("mul", 1.5, 1.5, FpFormat(2)) == 2.0


def test_trace_record_envelopes():
    values = random_substrate_values(48, 200)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        r = (1, 3, 6, 9)[i % 4]
        cfg = sr_config(p, r)
        y, rec = sr_round_traced(x, cfg, RngStream(1, i))
        u_p = 2.0 ** (1 - p)
        u_pr = 2.0 ** (1 - p - r)
        assert rec.rounded == y
        assert abs(rec.delta) <= u_p
        assert abs(rec.beta) <= u_pr
        assert y == pytest.approx(x * (1 + rec.delta), rel=1e-15)
        assert y in (round_down(x, cfg.fmt), round_up(x, cfg.fmt))
