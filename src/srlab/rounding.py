"""Bit-exact rounding primitives for an emulated precision-p binary format.

Every value lives in an IEEE-754 binary64 "substrate" (53-bit significand).
A target format keeps only the leading ``p`` significand bits, so the grid of
representable numbers at the binade of ``x`` has spacing ``ulp = 2**(e-p+1)``
where ``e`` is the normalized exponent of ``x``.  The exponent range is
unbounded as long as results stay exactly representable in the substrate;
results that would be substrate subnormals or infinities raise
:class:`SubstrateRangeError` instead of being flushed or saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

SUBSTRATE_WIDTH = 53

_TWO53 = float(1 << 53)
_DBL_MIN = math.ldexp(1.0, -1022)  # smallest normal binary64
# round_nearest splits |x| in (_SPLIT_MIN, _SPLIT_MAX) with float operations
_SPLIT_MIN = math.ldexp(1.0, -960)
_SPLIT_MAX = math.ldexp(1.0, 960)


class SubstrateRangeError(ArithmeticError):
    """Result is not exactly representable as a normal binary64 value."""


@dataclass(frozen=True)
class FpFormat:
    """Target format: ``p`` significand bits (leading 1 included)."""

    p: int

    def __post_init__(self):
        if not 2 <= self.p <= SUBSTRATE_WIDTH:
            raise ValueError(f"p must be in [2, {SUBSTRATE_WIDTH}], got {self.p}")
        # cached Veltkamp splitting constant for round_nearest
        object.__setattr__(self, "split", float(2 ** (SUBSTRATE_WIDTH - self.p) + 1))

    @property
    def unit_roundoff(self) -> float:
        """2**(1-p), the relative error scale of this format."""
        return math.ldexp(1.0, 1 - self.p)


@dataclass(frozen=True)
class Decomposition:
    """Sign/exponent/significand triple with ``m`` in [1, 2) at substrate width."""

    sign: int
    exponent: int
    significand: float

    @property
    def value(self) -> float:
        v = math.ldexp(self.significand, self.exponent)
        return -v if self.sign else v


def _check_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"finite value required, got {x!r}")


def _split(x: float) -> tuple[int, int]:
    """Return (M, e) with |x| = M * 2**(e-52) and M in [2**52, 2**53)."""
    m, e = math.frexp(abs(x))
    return int(m * _TWO53), e - 1


def _rebuild(negative: bool, sig: int, exp: int) -> float:
    # sig has at most 54 bits (carry may produce an exact power of two),
    # so float(sig) is exact; ldexp only misrounds outside the normal range.
    try:
        y = math.ldexp(sig, exp)
    except OverflowError:
        raise SubstrateRangeError("result overflows the binary64 substrate") from None
    if math.isinf(y):
        raise SubstrateRangeError("result overflows the binary64 substrate")
    if abs(y) < _DBL_MIN:
        raise SubstrateRangeError("result underflows to a binary64 subnormal")
    return -y if negative else y


def decompose(x: float) -> Decomposition:
    """Exact sign/exponent/significand decomposition of a nonzero finite value."""
    _check_finite(x)
    if x == 0.0:
        raise ValueError("zero has no normalized decomposition")
    m, e = math.frexp(abs(x))
    return Decomposition(sign=1 if x < 0 else 0, exponent=e - 1, significand=m * 2.0)


def ulp(x: float, fmt: FpFormat) -> float:
    """Grid spacing 2**(e-p+1) of the precision-p grid at the binade of x."""
    _check_finite(x)
    if x == 0.0:
        raise ValueError("ulp is undefined at zero")
    _, e = _split(x)
    return _rebuild(False, 1, e - fmt.p + 1)


def is_representable(x: float, fmt: FpFormat) -> bool:
    """True iff x lies on the precision-p grid (zero counts as representable)."""
    _check_finite(x)
    if x == 0.0:
        return True
    M, _ = _split(x)
    return M & ((1 << (SUBSTRATE_WIDTH - fmt.p)) - 1) == 0


def round_down(x: float, fmt: FpFormat) -> float:
    """Largest precision-p value <= x (round toward negative infinity)."""
    _check_finite(x)
    if x == 0.0:
        return x
    M, e = _split(x)
    s = SUBSTRATE_WIDTH - fmt.p
    sig, rem = M >> s, M & ((1 << s) - 1)
    if x < 0 and rem:
        sig += 1
    return _rebuild(x < 0, sig, e - fmt.p + 1)


def round_up(x: float, fmt: FpFormat) -> float:
    """Smallest precision-p value >= x (round toward positive infinity)."""
    _check_finite(x)
    if x == 0.0:
        return x
    M, e = _split(x)
    s = SUBSTRATE_WIDTH - fmt.p
    sig, rem = M >> s, M & ((1 << s) - 1)
    if x > 0 and rem:
        sig += 1
    return _rebuild(x < 0, sig, e - fmt.p + 1)


def truncate(x: float, width: int) -> float:
    """Drop significand bits of x beyond ``width`` (round toward zero).

    The result y satisfies |y| <= |x| and x = y*(1+b) with |b| < 2**(1-width);
    idempotent over repeated application at the same width.
    """
    _check_finite(x)
    if not 1 <= width <= SUBSTRATE_WIDTH:
        raise ValueError(f"width must be in [1, {SUBSTRATE_WIDTH}], got {width}")
    if x == 0.0:
        return x
    M, e = _split(x)
    sig = M >> (SUBSTRATE_WIDTH - width)
    return _rebuild(x < 0, sig, e - width + 1)


def round_nearest(x: float, fmt: FpFormat) -> float:
    """Nearest precision-p value, ties to an even last significand bit.

    When ``2**-960 < |x| < 2**960`` the result is Veltkamp's splitting
    (Dekker, Numer. Math. 1971): with ``c = x * (2**(53-p) + 1)``,
    ``c - (c - x)`` is x rounded to nearest at p bits, ties to even, in
    three binary64 operations.  The guard keeps every intermediate and the
    result normal and finite.  Zero, non-finite values and magnitudes
    outside the guard take the integer path below, which raises the range
    errors and keeps a signed zero.
    """
    if _SPLIT_MIN < abs(x) < _SPLIT_MAX:
        c = x * fmt.split
        return c - (c - x)
    # _split/_rebuild inlined, one frexp and one ldexp per call.
    m, e = frexp(x)
    try:
        M = int(m * _TWO53) if m > 0.0 else int(-m * _TWO53)
    except (OverflowError, ValueError):  # int() of inf or nan
        raise ValueError(f"finite value required, got {x!r}") from None
    s = SUBSTRATE_WIDTH - fmt.p
    if M & ((1 << s) - 1) == 0:  # zero, on the grid, or p = 53
        return x
    # adding half an ulp less one, plus the kept part's last bit, carries
    # exactly when the remainder is above half or a tie onto an odd value
    sig = (M + (1 << (s - 1)) - 1 + ((M >> s) & 1)) >> s
    try:
        y = ldexp(sig, e - fmt.p)
    except OverflowError:
        raise SubstrateRangeError("result overflows the binary64 substrate") from None
    if y < _DBL_MIN:
        raise SubstrateRangeError("result underflows to a binary64 subnormal")
    return y if m > 0.0 else -y


_EXP_FIELD = np.uint64(0x7FF)  # the binary64 exponent field, after a shift by 52


def round_nearest_array(x, fmt: FpFormat) -> np.ndarray:
    """``round_nearest`` of every element of a 1-d float64 array, as an array.

    Normal inputs round on the bit pattern, as in the ``chop`` emulator of
    Higham and Pranesh (SIAM J. Sci. Comput., 2019): adding half an ulp less
    one, plus the kept part's last bit, to the binary64 word and clearing
    the 53-p dropped bits carries into the exponent field exactly when the
    significand does.  Zero, subnormal and non-finite inputs, and results
    that reach the infinity pattern, are rounded by ``round_nearest``, so
    values and exceptions are those of the scalar loop.
    """
    x = np.asarray(x, dtype=np.float64)
    s = SUBSTRATE_WIDTH - fmt.p
    bits = x.view(np.uint64)
    if s:
        lsb = (bits >> np.uint64(s)) & np.uint64(1)
        out = (bits + np.uint64((1 << (s - 1)) - 1) + lsb) & ~np.uint64((1 << s) - 1)
    else:
        out = bits.copy()
    e_in = (bits >> np.uint64(52)) & _EXP_FIELD
    e_out = (out >> np.uint64(52)) & _EXP_FIELD
    scalar = (e_in == 0) | (e_in == _EXP_FIELD) | (e_out == _EXP_FIELD)
    out = out.view(np.float64)
    for i in np.flatnonzero(scalar):
        out[i] = round_nearest(float(x[i]), fmt)
    return out
