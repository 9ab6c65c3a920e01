"""Stochastic rounding with a limited random-bit budget.

The operator rounds a substrate value to one of its two enclosing
precision-p neighbors.  The up-probability is derived from the value
truncated to p+r significand bits, which is what summation-based hardware
implementations produce: r random bits are added to the r trailing bits of
the truncated significand and the carry, if any, propagates into the kept
part.  With r = ``IDEAL`` (all 53-p substrate bits) the truncation is the
identity and the operator becomes classical, unbiased stochastic rounding.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``: equal keys reproduce equal bit sequences, distinct
keys give statistically independent streams.  Each ``next_bits`` call
consumes one 64-bit word, so the bulk sampler consumes words identically
to a loop of single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

from .rounding import (
    SUBSTRATE_WIDTH,
    _DBL_MIN,
    _TWO53,
    FpFormat,
    SubstrateRangeError,
    _check_finite,
    _rebuild,
    _split,
    is_representable,
    round_nearest,
    truncate,
)

IDEAL = "ideal"

MODE_SR = "sr"
MODE_RN = "rn"

# Philox words per refill.  next_bits serves them as a list of Python ints;
# a small block keeps that list's memory small (the words do not depend on it).
_BLOCK = 512
_MASK64 = (1 << 64) - 1


class RngStream:
    """Reproducible, splittable source of uniform random bits.

    Single-owner: never share one stream across threads; give concurrent
    consumers distinct ``stream_id`` values instead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._words = np.empty(0, dtype=np.uint64)
        self._list: list[int] = []  # self._words as Python ints, made by next_bits
        self._pos = 0

    def _refill(self, n: int) -> None:
        self._words = self._bitgen.random_raw(max(n, _BLOCK))
        self._list = []
        self._pos = 0

    def next_bits(self, k: int) -> int:
        """k independent uniform bits, 1 <= k <= 64, as an integer."""
        if not 1 <= k <= 64:
            raise ValueError("k must be in [1, 64]")
        pos = self._pos
        try:
            w = self._list[pos]
        except IndexError:  # list view not made yet, or the block is used up
            if pos >= len(self._words):
                self._refill(_BLOCK)
                pos = 0
            # a block that bits_array left words in holds _BLOCK words at most
            self._list = self._words.tolist()
            w = self._list[pos]
        self._pos = pos + 1
        return w & ((1 << k) - 1)

    def bits_array(self, k: int, size: int) -> np.ndarray:
        """``size`` draws of ``next_bits(k)`` as a uint64 array."""
        if not 1 <= k <= 64:
            raise ValueError("k must be in [1, 64]")
        out = np.empty(size, dtype=np.uint64)
        filled = 0
        while filled < size:
            avail = len(self._words) - self._pos
            if avail == 0:
                self._refill(size - filled)
                avail = len(self._words)
            take = min(avail, size - filled)
            out[filled:filled + take] = self._words[self._pos:self._pos + take]
            self._pos += take
            filled += take
        if k < 64:
            out &= np.uint64((1 << k) - 1)
        return out


@dataclass(frozen=True)
class SrConfig:
    """One rounding-operator instance: target format, random-bit budget, mode."""

    fmt: FpFormat
    r: int | str = IDEAL
    mode: str = MODE_SR

    def __post_init__(self):
        if self.mode not in (MODE_SR, MODE_RN):
            raise ValueError(f"mode must be '{MODE_SR}' or '{MODE_RN}'")
        p = self.fmt.p
        if self.r == IDEAL:
            r_bits = SUBSTRATE_WIDTH - p
        else:
            r_bits = self.r
            if not isinstance(r_bits, int) or not 1 <= r_bits <= SUBSTRATE_WIDTH - p:
                raise ValueError(
                    f"r must be IDEAL or an integer in [1, {SUBSTRATE_WIDTH - p}]"
                )
        if self.mode == MODE_SR and r_bits < 1:
            raise ValueError("stochastic mode needs at least one random bit")
        # cached shift amounts for the hot path
        object.__setattr__(self, "r_bits", r_bits)
        object.__setattr__(self, "shift_p", SUBSTRATE_WIDTH - p)
        object.__setattr__(self, "mask_p", (1 << (SUBSTRATE_WIDTH - p)) - 1)
        object.__setattr__(self, "shift_pr", SUBSTRATE_WIDTH - p - r_bits)

    @property
    def p(self) -> int:
        return self.fmt.p

    @property
    def label(self) -> str:
        if self.mode == MODE_RN:
            return "rn" if self.p < SUBSTRATE_WIDTH else "fp64"
        return "sr_ideal" if self.r == IDEAL else f"sr{self.r}"


def sr_config(p: int, r: int | str = IDEAL) -> SrConfig:
    return SrConfig(FpFormat(p), r, MODE_SR)


def rn_config(p: int) -> SrConfig:
    return SrConfig(FpFormat(p), IDEAL, MODE_RN)


@dataclass(frozen=True)
class RoundingRecord:
    """Trace of one rounding: relative error and the truncation bias part."""

    exact_input: float
    rounded: float
    delta: float  # (rounded - input) / input, |delta| <= 2**(1-p)
    beta: float   # (truncate(input, p+r) - input) / input, |beta| <= 2**(1-p-r)


def q_r_numerator(x: float, cfg: SrConfig) -> int:
    """Integer k such that the round-up probability of x is exactly k / 2**r.

    k = 0 when x is representable at precision p; k may reach 2**r for
    negative inputs whose magnitude truncates onto the grid.
    """
    _check_finite(x)
    if x == 0.0:
        return 0
    M, _ = _split(x)
    rem = M & cfg.mask_p
    if rem == 0:
        return 0
    k = rem >> cfg.shift_pr
    return k if x > 0 else (1 << cfg.r_bits) - k


def sr_round(x: float, cfg: SrConfig, rng: RngStream) -> float:
    """Stochastically round x to precision p using r random bits.

    Returns the upper neighbor with probability ``q_r_numerator(x)/2**r``
    and the lower neighbor otherwise.  No randomness is consumed when x is
    already representable.
    """
    # Hot path: _split/_rebuild inlined, one frexp and one ldexp per call.
    m, e = frexp(x)
    try:
        M = int(m * _TWO53) if m > 0.0 else int(-m * _TWO53)
    except (OverflowError, ValueError):  # int() of inf or nan
        raise ValueError(f"finite value required, got {x!r}") from None
    rem = M & cfg.mask_p
    if rem == 0:  # zero or on the grid
        return x
    r = cfg.r_bits
    sig = (M >> cfg.shift_p) + (((rem >> cfg.shift_pr) + rng.next_bits(r)) >> r)
    try:
        y = ldexp(sig, e - cfg.fmt.p)
    except OverflowError:
        raise SubstrateRangeError("result overflows the binary64 substrate") from None
    if y < _DBL_MIN:
        raise SubstrateRangeError("result underflows to a binary64 subnormal")
    return y if m > 0.0 else -y


def sr_round_traced(x: float, cfg: SrConfig, rng: RngStream) -> tuple[float, RoundingRecord]:
    """sr_round plus a record of the realized delta and the truncation beta."""
    y = sr_round(x, cfg, rng)
    if x == 0.0:
        return y, RoundingRecord(x, y, 0.0, 0.0)
    fl = truncate(x, cfg.fmt.p + cfg.r_bits)
    return y, RoundingRecord(x, y, (y - x) / x, (fl - x) / x)


def enumerate_distribution(x: float, cfg: SrConfig) -> tuple[float, float, int]:
    """Exhaust all 2**r draws of the mechanism for x.

    Returns ``(lower, upper, up_count)`` where ``up_count`` of the 2**r
    equally likely draws carry into the upper neighbor.  The decomposition
    of x is shared across draws; each draw exercises the same add-and-carry
    step as :func:`sr_round`.
    """
    _check_finite(x)
    if cfg.r_bits > 20:
        raise ValueError("exhaustive enumeration capped at r <= 20")
    m = 1 << cfg.r_bits
    if x == 0.0:
        return 0.0, 0.0, 0
    M, e = _split(x)
    rem = M & cfg.mask_p
    exp = e - cfg.fmt.p + 1
    sig = M >> cfg.shift_p
    if rem == 0:
        v = _rebuild(x < 0, sig, exp)
        return v, v, 0
    k = rem >> cfg.shift_pr
    r = cfg.r_bits
    carries = sum((k + z) >> r for z in range(m))
    lo_mag = _rebuild(x < 0, sig, exp)
    hi_mag = _rebuild(x < 0, sig + 1, exp)
    if x > 0:
        return lo_mag, hi_mag, carries
    # magnitude growth means rounding toward -inf; count of upper = non-carries
    return hi_mag, lo_mag, m - carries


def sr_sample(x: float, cfg: SrConfig, rng: RngStream, size: int) -> np.ndarray:
    """``size`` independent sr_round outcomes of x as a float64 array.

    Consumes one 64-bit word per draw, exactly like a loop of sr_round
    calls, but performs the carry test vectorized.
    """
    _check_finite(x)
    if x == 0.0:
        return np.zeros(size)
    M, e = _split(x)
    rem = M & cfg.mask_p
    exp = e - cfg.fmt.p + 1
    sig = M >> cfg.shift_p
    if rem == 0:
        return np.full(size, _rebuild(x < 0, sig, exp))
    k = rem >> cfg.shift_pr
    lo_mag = _rebuild(x < 0, sig, exp)
    hi_mag = _rebuild(x < 0, sig + 1, exp)
    zs = rng.bits_array(cfg.r_bits, size)
    ups = (zs + np.uint64(k)) >> np.uint64(cfg.r_bits)
    return np.where(ups.astype(bool), hi_mag, lo_mag)


_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "sqrt": lambda a, b: math.sqrt(a),
}


def _op_result(op: str, a: float, b: float, fmt: FpFormat) -> float:
    if op not in _OPS:
        raise ValueError(f"unknown operation {op!r}")
    for name, v in (("a", a), ("b", b)):
        if op == "sqrt" and name == "b":
            continue
        if not is_representable(v, fmt):
            raise ValueError(f"operand {name}={v!r} is not a precision-{fmt.p} value")
    if op == "div" and b == 0.0:
        raise ValueError("division by zero")
    if op == "sqrt" and a < 0.0:
        raise ValueError("square root of a negative value")
    c = _OPS[op](a, b)
    if not math.isfinite(c):
        raise SubstrateRangeError(f"{op} result is out of substrate range")
    return c


def sr_op(
    op: str,
    a: float,
    b: float,
    cfg: SrConfig,
    rng: RngStream,
    trace: bool = False,
):
    """Elementary operation on precision-p operands, stochastically rounded.

    The pre-rounding value is the binary64 result of the operation (exact
    for products with 2p <= 53; add/sub may be double-rounded when the exact
    sum needs more than 53 bits; for div/sqrt the correctly rounded
    substrate result stands in for the exact value).
    """
    c = _op_result(op, a, b, cfg.fmt)
    if trace:
        return sr_round_traced(c, cfg, rng)
    return sr_round(c, cfg, rng)


def rn_op(op: str, a: float, b: float, fmt: FpFormat) -> float:
    """Elementary operation rounded to nearest (ties to even) at precision p."""
    return round_nearest(_op_result(op, a, b, fmt), fmt)
