"""Exact dyadic-rational arithmetic used as an independent test oracle.

A value is carried as ``sign * num * 2**exp2`` with an arbitrary-precision
odd integer ``num`` (zero for zero).  All rounding-related quantities
(floor/ceil on the precision-p grid, truncation to a given width, grid
spacing, round-up probabilities) are recomputed here from integer shifts,
deliberately sharing no code with the float-based primitives they check.
The exact references :func:`exact_sum` and :func:`exact_dot` use integer
accumulation: they add integer numerators at a common exponent and
canonicalize once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DyadicValue:
    sign: int  # -1, 0 or +1
    num: int   # odd positive integer, 0 iff sign == 0
    exp2: int

    def __post_init__(self):
        if self.sign == 0:
            if self.num != 0:
                raise ValueError("zero must have num == 0")
        elif self.num <= 0 or self.num % 2 == 0:
            raise ValueError("num must be a positive odd integer")

    @property
    def bit_length(self) -> int:
        return self.num.bit_length()

    @property
    def exponent(self) -> int:
        """Normalized exponent e with |value| in [2**e, 2**(e+1))."""
        if self.sign == 0:
            raise ValueError("zero has no normalized exponent")
        return self.num.bit_length() - 1 + self.exp2

    def as_fraction(self) -> Fraction:
        if self.exp2 >= 0:
            return Fraction(self.sign * self.num << self.exp2)
        return Fraction(self.sign * self.num, 1 << -self.exp2)

    def __neg__(self) -> "DyadicValue":
        return DyadicValue(-self.sign, self.num, self.exp2)


DY_ZERO = DyadicValue(0, 0, 0)


def _canonical(signed_num: int, exp2: int) -> DyadicValue:
    if signed_num == 0:
        return DY_ZERO
    sign = 1 if signed_num > 0 else -1
    n = abs(signed_num)
    tz = (n & -n).bit_length() - 1
    return DyadicValue(sign, n >> tz, exp2 + tz)


def _ratio(x: float) -> tuple[int, int]:
    """(n, e) with x = n * 2**e, from the float's exact integer ratio."""
    try:
        n, d = x.as_integer_ratio()  # d is a power of two for binary floats
    except (OverflowError, ValueError):  # infinity or nan
        raise ValueError(f"finite value required, got {x!r}") from None
    return n, 1 - d.bit_length()


def dy_from_float(x: float) -> DyadicValue:
    return _canonical(*_ratio(x))


def dy_to_float(v: DyadicValue) -> float:
    """Exact conversion back to binary64; error if not representable."""
    if v.sign == 0:
        return 0.0
    if v.bit_length > 53 or v.exp2 < -1074 or v.exponent > 1023:
        raise ValueError("value is not representable in the binary64 substrate")
    return v.sign * math.ldexp(v.num, v.exp2)


def dy_add(a: DyadicValue, b: DyadicValue) -> DyadicValue:
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    e = min(a.exp2, b.exp2)
    return _canonical(
        (a.sign * a.num << (a.exp2 - e)) + (b.sign * b.num << (b.exp2 - e)), e
    )


def dy_mul(a: DyadicValue, b: DyadicValue) -> DyadicValue:
    if a.sign == 0 or b.sign == 0:
        return DY_ZERO
    # product of odd numbers is odd, already canonical
    return DyadicValue(a.sign * b.sign, a.num * b.num, a.exp2 + b.exp2)


def _grid_split(v: DyadicValue, p: int) -> tuple[int, int, int]:
    """Split |v| on the precision-p grid: (floor_sig, remainder, unit_exp).

    |v| = (floor_sig + remainder * 2**(exp2 - unit_exp)) * 2**unit_exp with
    0 <= remainder < 2**(unit_exp - exp2); floor_sig is in [2**(p-1), 2**p).
    """
    unit = v.exponent - p + 1
    shift = v.exp2 - unit
    if shift >= 0:
        return v.num << shift, 0, unit
    return v.num >> -shift, v.num & ((1 << -shift) - 1), unit


def dy_floor(v: DyadicValue, p: int) -> DyadicValue:
    """Largest precision-p grid point <= v."""
    if v.sign == 0:
        return DY_ZERO
    sig, rem, unit = _grid_split(v, p)
    if v.sign < 0 and rem:
        sig += 1
    return _canonical(v.sign * sig, unit)


def dy_ceil(v: DyadicValue, p: int) -> DyadicValue:
    """Smallest precision-p grid point >= v."""
    if v.sign == 0:
        return DY_ZERO
    sig, rem, unit = _grid_split(v, p)
    if v.sign > 0 and rem:
        sig += 1
    return _canonical(v.sign * sig, unit)


def dy_trunc(v: DyadicValue, width: int) -> DyadicValue:
    """Truncation of v toward zero to ``width`` significand bits."""
    if v.sign == 0:
        return DY_ZERO
    sig, _, unit = _grid_split(v, width)
    return _canonical(v.sign * sig, unit)


def dy_ulp(v: DyadicValue, p: int) -> DyadicValue:
    if v.sign == 0:
        raise ValueError("ulp is undefined at zero")
    return DyadicValue(1, 1, v.exponent - p + 1)


def dy_round_nearest(v: DyadicValue, p: int) -> DyadicValue:
    """Nearest precision-p grid point, ties to even."""
    if v.sign == 0:
        return DY_ZERO
    sig, rem, unit = _grid_split(v, p)
    shift = unit - v.exp2
    if rem:
        half = 1 << (shift - 1)
        if rem > half or (rem == half and sig & 1):
            sig += 1
    return _canonical(v.sign * sig, unit)


def dy_q(x: DyadicValue, p: int, r: int | float = math.inf) -> Fraction:
    """Round-up probability of x on the precision-p grid, exactly.

    With r = inf this is (x - floor(x)) / ulp(x).  With finite r the
    numerator uses x truncated to p+r bits instead of x itself, so the
    result is an integer multiple of 2**-r (and may equal 1 for negative
    inputs whose magnitude truncates onto the grid).
    """
    if x.sign == 0:
        return Fraction(0)
    _, rem, unit = _grid_split(x, p)
    if rem == 0:
        return Fraction(0)
    t = unit - x.exp2  # number of sub-grid bits carrying the remainder
    if r == math.inf or t <= r:
        q_mag = Fraction(rem, 1 << t)
    else:
        q_mag = Fraction(rem >> (t - int(r)), 1 << int(r))
    return q_mag if x.sign > 0 else 1 - q_mag


def _accumulate(terms) -> DyadicValue:
    """Exact sum of ``n * 2**e`` over (n, e) pairs: one integer, kept at the
    smallest exponent seen so far, canonicalized once at the end."""
    total, low = 0, 0  # the sum so far is total * 2**low
    for n, e in terms:
        if e < low:
            total <<= low - e
            low = e
        total += n << (e - low)
    return _canonical(total, low)


def exact_sum(values) -> DyadicValue:
    """Exact sum of a sequence of floats."""
    return _accumulate(map(_ratio, values))


def exact_dot(a, b) -> DyadicValue:
    """Exact inner product of two equal-length float sequences."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return _accumulate(
        (nx * ny, ex + ey) for (nx, ex), (ny, ey) in zip(map(_ratio, a), map(_ratio, b))
    )


def rel_error(value: float, exact: DyadicValue) -> float:
    """|value - exact| / |exact| computed without intermediate rounding."""
    if exact.sign == 0:
        return 0.0 if value == 0.0 else math.inf
    err = abs(Fraction(value) - exact.as_fraction()) / abs(exact.as_fraction())
    return float(err)
