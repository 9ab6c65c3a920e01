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

import numpy as np

SUBSTRATE_WIDTH = 53

_TWO53 = float(1 << 53)
_DBL_MIN = math.ldexp(1.0, -1022)  # smallest normal binary64
# round_nearest(_array) splits |x| in (_SPLIT_MIN, _SPLIT_MAX) with float operations
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


def _decode(x: float, width: int) -> tuple[int, int, int]:
    """Split finite x at ``width`` significand bits: ``(sig, rem, exp)``.

    |x| = sig * 2**exp + rem * 2**(exp - 53 + width), with
    ``2**(width-1) <= sig < 2**width`` and ``rem < 2**(53-width)``, so x lies
    on the precision-``width`` grid iff rem = 0.  Zero decodes to sig = rem = 0.
    """
    if not math.isfinite(x):
        raise ValueError(f"finite value required, got {x!r}")
    m, e = math.frexp(abs(x))
    M = int(m * _TWO53)
    s = SUBSTRATE_WIDTH - width
    return M >> s, M & ((1 << s) - 1), e - width


def _rebuild(negative: bool, sig: int, exp: int) -> float:
    """``sig * 2**exp``, negated if ``negative``; SubstrateRangeError off the normal range."""
    # sig has at most 54 bits (carry may produce an exact power of two),
    # so float(sig) is exact; ldexp only misrounds outside the normal range.
    try:
        y = math.ldexp(sig, exp)
    except OverflowError:
        raise SubstrateRangeError("result overflows the binary64 substrate") from None
    if y < _DBL_MIN:
        raise SubstrateRangeError("result underflows to a binary64 subnormal")
    return -y if negative else y


def ulp(x: float, fmt: FpFormat) -> float:
    """Grid spacing 2**(e-p+1) of the precision-p grid at the binade of x."""
    _, _, exp = _decode(x, fmt.p)
    if x == 0.0:
        raise ValueError("ulp is undefined at zero")
    return _rebuild(False, 1, exp)


def is_representable(x: float, fmt: FpFormat) -> bool:
    """True iff x lies on the precision-p grid (zero counts as representable)."""
    return _decode(x, fmt.p)[1] == 0


def _directed(x: float, width: int, away: bool) -> float:
    """x on the precision-``width`` grid: itself when zero or on the grid,
    else its neighbor away from zero if ``away``, toward zero if not."""
    sig, rem, exp = _decode(x, width)
    if rem == 0:
        return x
    return _rebuild(x < 0, sig + away, exp)


def round_down(x: float, fmt: FpFormat) -> float:
    """Largest precision-p value <= x (round toward negative infinity)."""
    return _directed(x, fmt.p, x < 0)


def round_up(x: float, fmt: FpFormat) -> float:
    """Smallest precision-p value >= x (round toward positive infinity)."""
    return _directed(x, fmt.p, x > 0)


def truncate(x: float, width: int) -> float:
    """Drop significand bits of x beyond ``width`` (round toward zero).

    The result y satisfies |y| <= |x| and x = y*(1+b) with |b| < 2**(1-width);
    idempotent over repeated application at the same width.
    """
    if not 1 <= width <= SUBSTRATE_WIDTH:
        raise ValueError(f"width must be in [1, {SUBSTRATE_WIDTH}], got {width}")
    return _directed(x, width, False)


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
    sig, rem, exp = _decode(x, fmt.p)
    if rem == 0:  # zero, on the grid, or p = 53
        return x
    # up when the remainder is above half an ulp, or a tie onto an odd sig
    half = 1 << (SUBSTRATE_WIDTH - fmt.p - 1)
    return _rebuild(x < 0, sig + (rem + (sig & 1) > half), exp)


def round_nearest_array(x, fmt: FpFormat) -> np.ndarray:
    """``round_nearest`` of every element of a 1-d float64 array, as an array.

    Lanes with ``2**-960 < |x| < 2**960`` take ``round_nearest``'s Veltkamp
    split, ``c - (c - x)`` with ``c = x * fmt.split``, elementwise.  Every
    other lane is rounded by ``round_nearest`` itself, and stands in as 1.0
    in the split so that no inf, nan or huge element warns; values and
    exceptions are those of the scalar loop.
    """
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    cold = ~((_SPLIT_MIN < mag) & (mag < _SPLIT_MAX))
    xs = np.where(cold, 1.0, x)
    c = xs * fmt.split
    out = c - (c - xs)
    for i in np.flatnonzero(cold):
        out[i] = round_nearest(float(x[i]), fmt)
    return out
