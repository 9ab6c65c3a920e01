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
to a loop of single draws.  Single draws are served from an iterator over
the current block's unserved words, masked ahead of time to the width last
asked for, so a run of draws at one width costs one compare and one step of
the iterator each; a change of width re-masks the unserved words and
consumes no word of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from math import fmod, ulp
from operator import length_hint

import numpy as np

from .rounding import (
    _SPLIT_MAX,
    _SPLIT_MIN,
    SUBSTRATE_WIDTH,
    FpFormat,
    SubstrateRangeError,
    _decode,
    _rebuild,
    check_int,
)

IDEAL = "ideal"

MODE_SR = "sr"
MODE_RN = "rn"

# Philox words per refill.  next_bits serves them from an iterator over a list
# of Python ints masked to the width last asked for, and a change of width
# re-masks only the words not yet served; a refill's fixed cost is spread over
# the block, and the block's list stays small (the words do not depend on it).
_BLOCK = 2048
# a seed or stream id is a Philox key word in [0, KEY_MAX]: numpy would wrap -1
# onto KEY_MAX and truncate 1.5 or True to the key of another stream
KEY_MAX = (1 << 64) - 1


class RngStream:
    """Reproducible, splittable source of uniform random bits.

    Single-owner: never share one stream across threads; give concurrent
    consumers distinct ``stream_id`` values instead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = check_int("seed", seed, 0, KEY_MAX)
        self.stream_id = check_int("stream_id", stream_id, 0, KEY_MAX)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._words = np.empty(0, dtype=np.uint64)  # the raw block
        # the block's unserved words, masked to _k bits, as Python ints; its
        # length hint is how many words of the block are left
        self._it = iter(())
        self._k = None  # the k object _it was masked for; None before a draw

    def next_bits(self, k: int) -> int:
        """k independent uniform bits, 1 <= k <= 64, as an integer."""
        # Identity, not ==: 8.0 == 8 would serve an 8-bit word to a float k
        # that _mask_block refuses.
        if k is self._k:
            for w in self._it:
                return w
        return self._mask_block(k)

    def _mask_block(self, k: int) -> int:
        """next_bits for the first draw, a new width or a used-up block:
        validate k, refill if needed, mask the unserved words to k bits and
        serve the first.  It never calls next_bits, which a caller may wrap
        to count one word per call."""
        mask = (1 << check_int("k", k, 1, 64)) - 1  # before a word is used
        left = length_hint(self._it)
        if left:
            words = self._words[len(self._words) - left:]
        else:
            self._words = words = self._bitgen.random_raw(_BLOCK)
        self._it = iter((words & mask).tolist())
        self._k = k
        return next(self._it)

    def bits_array(self, k: int, size: int) -> np.ndarray:
        """``size`` draws of ``next_bits(k)`` as a uint64 array: the words left
        in the block, then the rest straight from the generator (Philox words
        do not depend on how its calls are split), which uses the block up."""
        k = check_int("k", k, 1, 64)
        size = check_int("size", size, 0)
        mask = np.uint64((1 << k) - 1)
        words, left = self._words, length_hint(self._it)
        pos = len(words) - left
        if size <= left:
            next(islice(self._it, size, size), None)  # skip the words served here
            return words[pos:pos + size] & mask  # a new array, never a view
        out = self._bitgen.random_raw(size - left)
        if left:
            out = np.concatenate((words[pos:], out))
        self._it = iter(())
        if k < 64:
            out &= mask
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
        elif p == SUBSTRATE_WIDTH:
            raise ValueError(f"p = {p} leaves no random bit, so r must be '{IDEAL}', "
                             f"got {self.r!r}")
        else:
            r_bits = check_int("r", self.r, 1, SUBSTRATE_WIDTH - p)
            object.__setattr__(self, "r", r_bits)
        if self.mode == MODE_SR and r_bits < 1:
            raise ValueError("stochastic mode needs at least one random bit")
        object.__setattr__(self, "r_bits", r_bits)
        object.__setattr__(self, "shift_pr", SUBSTRATE_WIDTH - p - r_bits)
        # sr_round's grid spacing at p and at p + r bits, in substrate ulps
        object.__setattr__(self, "ulps_p", 2.0 ** (SUBSTRATE_WIDTH - p))
        object.__setattr__(self, "ulps_pr", 2.0 ** (SUBSTRATE_WIDTH - p - r_bits))

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


def _off_grid(x: float, cfg: SrConfig) -> tuple[int, int, int] | None:
    """None when x is zero or on the precision-p grid (no draw), else
    ``(sig, exp, k)``: |x| lies between ``sig * 2**exp`` and ``(sig+1) * 2**exp``,
    and a draw z carries into the upper one iff ``k + z >= 2**r``."""
    sig, rem, exp = _decode(x, cfg.fmt.p)
    if rem == 0:
        return None
    return sig, exp, rem >> cfg.shift_pr


def sr_round(x: float, cfg: SrConfig, rng: RngStream) -> float:
    """Stochastically round x to precision p using r random bits.

    Returns the upper neighbor with probability ``up_count/2**r``, the
    count of :func:`enumerate_distribution`, and the lower one otherwise.
    No randomness is consumed when x is already representable.  When
    ``2**-960 < |x| < 2**960``, x rounds away from zero iff
    ``|rem| + z * 2**(e-p-r+1) >= 2**(e-p+1)``, with ``rem`` the exact
    ``fmod`` of x by its grid spacing and z the r-bit draw.
    """
    # Hot path, float operations only, one branch per sign: with u the
    # substrate ulp of x and up = u * 2**(53-p) the precision-p spacing,
    # rem = fmod(x, up) is x's part below the grid, of x's sign, and its
    # p+r-bit part is k = |rem| // (u * 2**(53-p-r)).  k + z >= 2**r iff
    # |rem| + z * u * 2**(53-p-r) >= up, since the bits of |rem| below p+r
    # add less than one step of z.  Every term is a multiple of u below
    # 2*up <= 2**52 * u, so the sum is exact, and so are fmod, x - rem and
    # x - rem +- up: grid points, normal and finite inside the guard.  Zero,
    # tiny, huge and non-finite x take _off_grid/_rebuild.
    if _SPLIT_MIN < x < _SPLIT_MAX:
        u = ulp(x)
        up = u * cfg.ulps_p
        rem = fmod(x, up)
        if rem == 0.0:  # on the grid
            return x
        if rem + rng.next_bits(cfg.r_bits) * (u * cfg.ulps_pr) < up:
            return x - rem
        return x - rem + up
    if -_SPLIT_MAX < x < -_SPLIT_MIN:
        u = ulp(x)
        up = u * cfg.ulps_p
        rem = fmod(x, up)
        if rem == 0.0:
            return x
        if rng.next_bits(cfg.r_bits) * (u * cfg.ulps_pr) - rem < up:
            return x - rem
        return x - rem - up
    d = _off_grid(x, cfg)
    if d is None:  # zero or on the grid
        return x
    sig, exp, k = d
    r = cfg.r_bits
    return _rebuild(x < 0, sig + ((k + rng.next_bits(r)) >> r), exp)


def enumerate_distribution(x: float, cfg: SrConfig) -> tuple[float, float, int]:
    """The law of :func:`sr_round` at x over all 2**r draws, for any r.

    Returns ``(lower, upper, up_count)`` where ``up_count`` of the 2**r
    equally likely draws give the upper neighbor by :func:`sr_round`'s
    add-and-carry step.  A value on the grid is its own neighbors; a
    neighbor that no draw reaches is infinite when it overflows.
    """
    d = _off_grid(x, cfg)
    if d is None:
        return x, x, 0
    # k + z carries out of r bits for exactly the k draws z >= 2**r - k
    sig, exp, k = d
    neg = x < 0
    lo_mag = _rebuild(neg, sig, exp)  # z = 0 never carries, as k < 2**r
    try:
        hi_mag = _rebuild(neg, sig + 1, exp)
    except SubstrateRangeError:  # it overflows: lo_mag is normal
        if k:
            raise
        hi_mag = math.copysign(math.inf, x)
    if not neg:
        return lo_mag, hi_mag, k
    # magnitude growth means rounding toward -inf; count of upper = non-carries
    return hi_mag, lo_mag, (1 << cfg.r_bits) - k


def sr_sample(x: float, cfg: SrConfig, rng: RngStream, size: int) -> np.ndarray:
    """``size`` independent sr_round outcomes of x as a float64 array.

    Bit-identical to a loop of sr_round calls on the same stream: one word
    per draw off the grid and none on it, and a SubstrateRangeError exactly
    when some drawn outcome is out of range.
    """
    size = check_int("size", size, 0)  # also when x is on the grid and draws nothing
    d = _off_grid(x, cfg)
    if d is None:  # zero or on the grid
        return np.full(size, x, dtype=np.float64)
    sig, exp, k = d
    r = cfg.r_bits
    # k + z carries out of r bits iff z >= 2**r - k, as z, k < 2**r
    carry = rng.bits_array(r, size) >= (1 << r) - k
    try:
        lo, hi = _rebuild(x < 0, sig, exp), _rebuild(x < 0, sig + 1, exp)
    except SubstrateRangeError:  # build only the neighbors that some draw takes
        ups = int(np.count_nonzero(carry))
        lo = _rebuild(x < 0, sig, exp) if ups < size else 0.0  # 0.0: none takes it
        hi = _rebuild(x < 0, sig + 1, exp) if ups else 0.0
    # exact: hi - lo is one ulp and lo + ulp == hi, or one of them is 0.0
    out = carry * (hi - lo)
    out += lo
    return out
