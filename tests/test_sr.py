import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srlab import sr
from srlab.bounds import unit_roundoff
from srlab.dyadic import dy_ceil, dy_exponent, dy_floor, dy_from_float, dy_q, dy_to_float
from srlab.rounding import (
    FpFormat,
    SubstrateRangeError,
    is_representable,
    round_down,
    round_up,
    truncate,
    ulp,
)
from srlab.sr import (
    _BLOCK,
    IDEAL,
    RngStream,
    SrConfig,
    enumerate_distribution,
    rn_config,
    sr_config,
    sr_round,
    sr_sample,
)

from conftest import random_substrate_values, sr_record, substrate_floats

GOLDEN_FIRST_WORD = 0x02F4BA6408E4D89B  # first 64 bits of stream (0, 0), frozen


def sr_round_comparison(x: float, cfg: SrConfig, rng) -> float:
    """Reference path: draw an r-bit uniform Z and round up iff Z < k.

    Distribution-equivalent to :func:`sr_round`; an independent formulation
    to check the carry-based mechanism against.
    """
    if is_representable(x, cfg.fmt):  # zero or on the grid: no draw
        return x
    k = enumerate_distribution(x, cfg)[2]
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


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
def test_stream_key_outside_64_bits_is_rejected(seed, stream_id):
    # Philox keys are 64-bit words: -1 and 2**64 - 1 would alias
    with pytest.raises(ValueError,
                       match=r"(seed|stream_id) must be in \[0, 18446744073709551615\]"):
        RngStream(seed, stream_id)


def test_stream_key_range_ends_are_accepted():
    top = (1 << 64) - 1
    assert RngStream(top, top).next_bits(64) != RngStream(0, top).next_bits(64)


# numpy would truncate each of these to an integer key, the key of another stream
@pytest.mark.parametrize(
    "seed, stream_id",
    [(1.5, 0), (True, 0), (1, 0.5), (0, False), (np.float64(1.0), 0), (11.0, 0), (0, 3.0)],
)
def test_stream_key_that_is_not_an_integer_is_rejected(seed, stream_id):
    with pytest.raises(ValueError, match="must be an integer"):
        RngStream(seed, stream_id)


def test_stream_key_numpy_integers_are_accepted():
    # an exact integer is a key whatever its type; np.bool_ is not an integer
    top = (1 << 64) - 1
    a, b = RngStream(np.uint64(top), np.int64(3)), RngStream(top, 3)
    assert [a.next_bits(64) for _ in range(4)] == [b.next_bits(64) for _ in range(4)]
    with pytest.raises(ValueError, match="must be in"):
        RngStream(np.int64(-1), 0)
    with pytest.raises(ValueError, match="must be an integer"):
        RngStream(np.bool_(True), 0)


def test_next_bits_range():
    rng = RngStream(9, 9)
    for k in (1, 7, 33, 64):
        for _ in range(200):
            assert 0 <= rng.next_bits(k) < (1 << k)
    with pytest.raises(ValueError):
        rng.next_bits(0)
    with pytest.raises(ValueError):
        rng.next_bits(65)


@pytest.mark.parametrize("k", [0, 65, -1, 8.0, True])
def test_next_bits_bad_k_leaves_stream_unchanged(k):
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        rng.next_bits(k)
    assert rng.next_bits(64) == RngStream(0, 0).next_bits(64)
    # also after a draw, when the block is already served, and after a draw
    # at the width 8.0 equals, which a fast path keyed by == would serve
    rng.next_bits(8)
    with pytest.raises(ValueError):
        rng.next_bits(k)
    fresh = RngStream(0, 0)
    fresh.next_bits(64)
    fresh.next_bits(8)
    assert rng.next_bits(64) == fresh.next_bits(64)


def test_bool_width_is_refused_after_a_one_bit_draw():
    # True == 1, so a width check by value alone would serve 1-bit draws
    rng = RngStream(0, 0)
    rng.next_bits(1)
    with pytest.raises(ValueError):
        rng.next_bits(True)
    with pytest.raises(ValueError):
        rng.bits_array(True, 8)
    fresh = RngStream(0, 0)
    fresh.next_bits(1)
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


@given(
    st.lists(
        st.tuples(st.integers(1, 64), st.integers(0, 1500), st.booleans()),
        max_size=10,
    )
)
# widths switch in mid-block, single draws cross refills, and a bulk draw
# uses the block up under a list masked to the width drawn next
@example([(7, 100, False), (11, 300, False), (7, 200, False), (64, 5, True),
          (3, 1000, False), (3, 600, True), (3, 5, False)])
# a width change after a bulk draw inside the block re-masks only what is left
@example([(7, 10, False), (7, 100, True), (11, 50, False), (11, 3, True), (5, 20, False)])
# single draws use the block up exactly, then the width changes
@example([(5, _BLOCK, False), (9, 10, False)])
# a bulk draw uses the block up exactly, then the width changes
@example([(5, 100, False), (5, _BLOCK - 100, True), (9, 10, False)])
@settings(max_examples=60, deadline=None)
def test_draws_are_the_philox_words_masked(steps):
    # the oracle is the generator itself: word i of any mix of next_bits and
    # bits_array calls is word i of Philox(key=[seed, stream_id]), masked
    rng = RngStream(13, 6)
    got, masks = [], []
    for k, count, bulk in steps:
        if bulk:
            got += rng.bits_array(k, count).tolist()
        else:
            got += [rng.next_bits(k) for _ in range(count)]
        masks += [(1 << k) - 1] * count
    raw = np.random.Philox(key=[13, 6]).random_raw(len(got) + 1).tolist()
    assert got == [w & m for w, m in zip(raw, masks)]
    assert rng.next_bits(64) == raw[-1]


def test_bits_array_size_zero_draws_nothing():
    a = RngStream(8, 2)
    out = a.bits_array(64, 0)
    assert out.dtype == np.uint64 and out.size == 0
    assert a.next_bits(64) == RngStream(8, 2).next_bits(64)


@pytest.mark.parametrize("lead", [0, 5, 512, _BLOCK])
def test_bits_array_negative_size_leaves_stream_unchanged(lead):
    a, b = RngStream(8, 2), RngStream(8, 2)
    assert [a.next_bits(64) for _ in range(lead)] == [b.next_bits(64) for _ in range(lead)]
    with pytest.raises(ValueError):
        a.bits_array(11, -1)
    assert [a.next_bits(64) for _ in range(600)] == [b.next_bits(64) for _ in range(600)]


# served from the block, from the generator, and from both
@pytest.mark.parametrize("lead, size", [(0, 5000), (5, 100), (5, 5000), (512, 700),
                                        (_BLOCK, 700)])
@pytest.mark.parametrize("k", [11, 64])
def test_bits_array_result_does_not_alias_the_stream(lead, size, k):
    a, b = RngStream(8, 2), RngStream(8, 2)
    assert [a.next_bits(64) for _ in range(lead)] == [b.next_bits(64) for _ in range(lead)]
    got = a.bits_array(k, size)
    assert got.tolist() == b.bits_array(k, size).tolist()
    assert not np.shares_memory(got, a._words)
    got[:] = 0
    assert [a.next_bits(64) for _ in range(1200)] == [b.next_bits(64) for _ in range(1200)]


# ---------------------------------------------------------------- SrConfig


def test_config_validation():
    with pytest.raises(ValueError):
        sr_config(11, 0)
    with pytest.raises(ValueError):
        sr_config(11, 43)  # p + r > 53
    with pytest.raises(ValueError):
        SrConfig(FpFormat(11), 7, mode="nearest")
    for r in (True, False):  # a bool is not a bit count
        with pytest.raises(ValueError):
            sr_config(11, r)
    cfg = sr_config(11)
    assert cfg.r == IDEAL and cfg.r_bits == 42
    assert sr_config(11, 7).label == "sr7"
    assert sr_config(11).label == "sr_ideal"
    assert rn_config(11).label == "rn"
    assert rn_config(53).label == "fp64"


# ----------------------------------------------------------------- up-count


def test_up_count_examples():
    assert enumerate_distribution(1.3125, sr_config(2, 1))[2] == 1
    assert enumerate_distribution(1.3125, sr_config(2, 3))[2] == 5
    assert enumerate_distribution(1.5, sr_config(2, 4))[2] == 0


def test_up_count_matches_oracle():
    values = random_substrate_values(31, 400)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        for r in (1, 2, 5, 9):
            cfg = sr_config(p, r)
            k = enumerate_distribution(x, cfg)[2]
            assert Fraction(k, 1 << r) == dy_q(dy_from_float(x), p, r)


# ----------------------------------------------------------------- sr_round


def test_representable_is_deterministic_and_draws_nothing():
    cfg = sr_config(2, 3)
    rng = FixedStream([])  # any draw would raise IndexError
    assert sr_round(1.5, cfg, rng) == 1.5
    assert sr_round(-2.0, cfg, rng) == -2.0
    assert sr_round(0.0, cfg, rng) == 0.0


def _at_guard_edges(test):
    """``@example``s at +-2**-960 and +-2**960, the ends of sr_round's float
    path, and at their nextafter neighbors on both sides, with a draw that
    carries wherever k > 0 (p = 11, r = 7 and r = ideal)."""
    for e in (-960, 960):
        edge = math.ldexp(1.0, e)
        for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            for x in (v, -v):
                test = example(x, 11, 6, (1 << 51) - 1)(test)
                test = example(x, 11, 41, (1 << 51) - 1)(test)
    return test


@given(substrate_floats, st.integers(2, 52), st.integers(0, 51), st.integers(0, (1 << 51) - 1))
@example(sys.float_info.max, 2, 0, 1)  # rounds up to 2**1024
@example(-sys.float_info.max, 11, 41, (1 << 42) - 1)  # rounds down to -2**1024
@example(-0.0, 11, 3, 0)
@example(5e-324, 2, 0, 1)  # substrate subnormal, on the grid
@example(math.ldexp(3.0, -1024), 2, 0, 1)  # substrate subnormal, off the grid
@example(math.ldexp(2.0 ** 52 - 1, -1074), 11, 41, (1 << 42) - 1)  # carries to 2**-1022
@example(math.nextafter(2.0, 0.0), 11, 6, (1 << 7) - 1)  # r = 7: carries across the binade to 2.0
@example(1.3, 2, 50, (1 << 51) - 1)  # p = 2, r = ideal (51 bits): the largest draw
@example(-1.3, 2, 50, (1 << 51) - 2)
@example(math.pi, 2, 50, 1 << 50)
@_at_guard_edges
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
    if -1022 <= dy_exponent(want) <= 1023:
        assert sr_round(x, cfg, rng) == dy_to_float(want)
    else:
        with pytest.raises(SubstrateRangeError):
            sr_round(x, cfg, rng)
    assert rng.i == 1


@given(
    st.sampled_from((1.0, -1.0)),
    st.integers(1 << 52, (1 << 53) - 1),
    st.integers(-1011, 907),  # 2**-959 <= |x| < 2**960: sr_round's float path
    st.integers(2, 52),
    st.integers(0, 51),
)
@settings(max_examples=500)
def test_sr_round_flips_at_the_carry_threshold(sign, sig, exp, p, r):
    x = sign * math.ldexp(sig, exp)
    cfg = sr_config(p, 1 + r % (53 - p))
    r = cfg.r_bits
    v = dy_from_float(x)
    # k of the magnitude's 2**r draws carry away from zero: z >= 2**r - k
    k = int(dy_q(dy_from_float(abs(x)), p, r) * (1 << r))
    assume(k > 0)
    toward, away = (dy_floor(v, p), dy_ceil(v, p))[:: int(sign)]
    rng = FixedStream([(1 << r) - k - 1, (1 << r) - k])
    assert sr_round(x, cfg, rng) == dy_to_float(toward)
    assert sr_round(x, cfg, rng) == dy_to_float(away)
    assert rng.i == 2


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_sr_round_rejects_non_finite(x):
    rng = FixedStream([])
    with pytest.raises(ValueError):
        sr_round(x, sr_config(11, 3), rng)
    assert rng.i == 0


def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


_HUGE = math.ldexp(1.5, 1023) + math.ldexp(1.0, 983)  # k = 0 at p=2, r=1


def test_sr_op_mul_example():
    # 1.5 * 1.5 = 2.25 lies a quarter of the way from 2 to 3 on the p = 2 grid
    cfg = sr_config(2, 2)
    lo, hi, ups = enumerate_distribution(1.5 * 1.5, cfg)
    assert (lo, hi, ups) == (2.0, 3.0, 1)  # q = 1/4


def test_enumeration_example():
    assert enumerate_distribution(1.3125, sr_config(2, 1)) == (1.0, 1.5, 1)
    assert enumerate_distribution(1.3125, sr_config(2, 3)) == (1.0, 1.5, 5)
    lo, hi, ups = enumerate_distribution(1.5, sr_config(2, 3))
    assert (lo, hi, ups) == (1.5, 1.5, 0)
    # values that need no rounding are their own neighbors, sign of zero included
    lo, hi, ups = enumerate_distribution(-0.0, sr_config(11, 5))
    assert (_bits([lo, hi]), ups) == (_bits([-0.0, -0.0]), 0)
    assert enumerate_distribution(5e-324, sr_config(2, 3)) == (5e-324, 5e-324, 0)
    # the overflowing neighbor no draw reaches is an infinity
    top = math.ldexp(1.5, 1023)
    assert enumerate_distribution(_HUGE, sr_config(2, 1)) == (top, math.inf, 0)
    assert enumerate_distribution(-_HUGE, sr_config(2, 1)) == (-math.inf, -top, 2)


@given(substrate_floats, st.integers(2, 52), st.integers(1, 8))
@example(-0.0, 11, 5)  # keeps its sign, like sr_round
@example(5e-324, 2, 3)  # on the grid, though subnormal: no rounding, no range error
# every draw rounds to 1.5 * 2**1023; the neighbor no draw reaches is inf
@example(_HUGE, 2, 1)
@example(-_HUGE, 2, 1)
@settings(max_examples=500, deadline=None)
def test_enumerate_distribution_is_the_sr_round_loop(x, p, r):
    cfg = sr_config(p, min(r, 53 - p))
    try:
        outs = [sr_round(x, cfg, FixedStream([z])) for z in range(1 << cfg.r_bits)]
    except (ValueError, SubstrateRangeError) as exc:
        with pytest.raises((ValueError, SubstrateRangeError)) as info:
            enumerate_distribution(x, cfg)
        assert info.type is type(exc)
        return
    lo, hi, ups = enumerate_distribution(x, cfg)
    out_bits, (lo_bits, hi_bits) = _bits(outs), _bits([lo, hi])
    assert set(out_bits) <= {lo_bits, hi_bits}
    assert ups == (out_bits.count(hi_bits) if hi_bits != lo_bits else 0)


@pytest.mark.parametrize("p", [2, 11, 24])
def test_enumerate_distribution_at_wide_r(p):
    # the up-count is k itself, with no array of 2**r draws, so any r works
    fmt = FpFormat(p)
    values = random_substrate_values(48 + p, 200)
    for r in (21, 53 - p):
        cfg = sr_config(p, r)
        for x in values:
            lo, hi, ups = enumerate_distribution(x, cfg)
            assert ups == dy_q(dy_from_float(x), p, r) * 2**r
            assert (lo, hi) == (round_down(x, fmt), round_up(x, fmt))


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
            assert var <= Fraction(x) ** 2 * Fraction(unit_roundoff(p)) ** 2 / 4


def test_ideal_limit_matches_exact_probability():
    values = random_substrate_values(46, 300)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        cfg = sr_config(p, IDEAL)
        k = enumerate_distribution(x, cfg)[2]
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


@st.composite
def sr_configs(draw):
    p = draw(st.integers(2, 52))
    return sr_config(p, draw(st.one_of(st.just(IDEAL), st.integers(1, 53 - p))))


@given(
    x=substrate_floats,
    cfg=sr_configs(),
    size=st.sampled_from([0, 1, 511, 512, 513, 5000, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
    lead=st.sampled_from([0, 0, 1, 300, 511, 512, 513, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
    seed=st.integers(0, 2**32),
)
# -0.0 keeps its sign, like sr_round
@example(x=-0.0, cfg=sr_config(11, 5), size=3, lead=0, seed=0)
# on the grid, so no rounding and no range error, though 5e-324 is subnormal
@example(x=5e-324, cfg=sr_config(2, 3), size=3, lead=0, seed=0)
# k = 0: every draw rounds down to 1.5 * 2**1023; the upper neighbor would overflow
@example(x=math.ldexp(1.5, 1023) + math.ldexp(1.0, 983), cfg=sr_config(2, 1),
         size=3, lead=0, seed=0)
# a substrate subnormal whose upper neighbor is 2**-1022: all 3 draws carry and
# give 2**-1022; of 8 draws some do not, and the lower neighbor is subnormal
@example(x=math.ldexp(2**52 - 1, -1074), cfg=sr_config(11, 3), size=3, lead=0, seed=0)
@example(x=math.ldexp(2**52 - 1, -1074), cfg=sr_config(11, 3), size=8, lead=0, seed=0)
# k = 1: the upper neighbor 2**1024 is reachable; one draw takes the lower
# 1.5 * 2**1023, and of 3 draws some carry and overflow
@example(x=math.ldexp(1.75, 1023), cfg=sr_config(2, 1), size=1, lead=0, seed=0)
@example(x=math.ldexp(1.75, 1023), cfg=sr_config(2, 1), size=3, lead=0, seed=0)
@settings(max_examples=300, deadline=None)
def test_sr_sample_is_the_sr_round_loop(x, cfg, size, lead, seed):
    # twin streams, the block part read first: same outcome bits, same
    # exception, and the same next word afterwards
    a, b = RngStream(seed, 1), RngStream(seed, 1)
    assert [a.next_bits(64) for _ in range(lead)] == [b.next_bits(64) for _ in range(lead)]
    try:
        want = [sr_round(x, cfg, b) for _ in range(size)]
    except (ValueError, SubstrateRangeError) as exc:
        with pytest.raises((ValueError, SubstrateRangeError)) as info:
            sr_sample(x, cfg, a, size)
        assert info.type is type(exc)
        return
    got = sr_sample(x, cfg, a, size)
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == np.array(want, dtype=np.float64).view(np.uint64).tolist()
    assert a.next_bits(64) == b.next_bits(64)


def test_sampler_keeps_no_copy_of_the_range_rule():
    # sr_sample builds its neighbors with rounding._rebuild, the one place
    # that knows the normal binary64 range
    tree = ast.parse(Path(sr.__file__).read_text(encoding="utf-8"))
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    assert not imported & {"ldexp", "_DBL_MIN"}
    assert not any(isinstance(node, ast.Attribute) and node.attr == "ldexp"
                   for node in ast.walk(tree))


def test_trace_record_envelopes():
    values = random_substrate_values(48, 200)
    for i, x in enumerate(values):
        p = (2, 8, 11, 24)[i % 4]
        r = (1, 3, 6, 9)[i % 4]
        cfg = sr_config(p, r)
        y = sr_round(x, cfg, RngStream(1, i))
        delta, beta = sr_record(x, y, cfg)
        u_p = 2.0 ** (1 - p)
        u_pr = 2.0 ** (1 - p - r)
        assert abs(delta) <= u_p
        assert abs(beta) <= u_pr
        assert y == pytest.approx(x * (1 + delta), rel=1e-15)
        assert y in (round_down(x, cfg.fmt), round_up(x, cfg.fmt))


def test_trace_record_below_the_normal_range_matches_sr_round():
    # x is a substrate subnormal that sr_round rounds up to 2**-1022 on a
    # carry (7 in 8 draws) and rejects otherwise; its record must not raise
    x = math.ldexp(2**52 - 1, -1074)
    cfg = sr_config(11, 3)
    rounded = 0
    for i in range(200):
        try:
            y = sr_round(x, cfg, RngStream(0, i))
        except SubstrateRangeError:
            continue
        delta, beta = sr_record(x, y, cfg)
        assert y == 2.0 ** -1022
        # the truncation to p + r = 14 bits is 16383 * 2**-1036, itself subnormal
        assert beta == (math.ldexp(16383, -1036) - x) / x
        assert abs(delta) <= 2.0 ** -10
        assert abs(beta) <= 2.0 ** -13
        rounded += 1
    assert rounded == 171
