"""Exact dyadic-rational arithmetic used as an independent test oracle.

A value is carried as ``sign * num * 2**exp2`` with an arbitrary-precision
odd integer ``num`` (zero for zero).  All rounding-related quantities
(floor/ceil on the precision-p grid, truncation to a given width, grid
spacing, round-up probabilities) are recomputed here from integer shifts,
deliberately sharing no code with the float-based primitives they check.
The exact references :func:`exact_sum` and :func:`exact_dot` split every
term into 27-bit limbs, sum the limbs per exponent in numpy, add the few
bucket sums as Python integers and canonicalize once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
    def exponent(self) -> int:
        """Normalized exponent e with |value| in [2**e, 2**(e+1))."""
        if self.sign == 0:
            raise ValueError("zero has no normalized exponent")
        return self.num.bit_length() - 1 + self.exp2

    def as_fraction(self) -> Fraction:
        if self.exp2 >= 0:
            return Fraction(self.sign * self.num << self.exp2)
        return Fraction(self.sign * self.num, 1 << -self.exp2)


DY_ZERO = DyadicValue(0, 0, 0)


def _canonical(signed_num: int, exp2: int) -> DyadicValue:
    if signed_num == 0:
        return DY_ZERO
    sign = 1 if signed_num > 0 else -1
    n = abs(signed_num)
    tz = (n & -n).bit_length() - 1
    return DyadicValue(sign, n >> tz, exp2 + tz)


def dy_from_float(x: float) -> DyadicValue:
    try:
        n, d = x.as_integer_ratio()  # d is a power of two for binary floats
    except (OverflowError, ValueError):  # infinity or nan
        raise ValueError(f"finite value required, got {x!r}") from None
    return _canonical(n, 1 - d.bit_length())


def dy_to_float(v: DyadicValue) -> float:
    """Exact conversion back to binary64; error if not representable."""
    if v.sign == 0:
        return 0.0
    if v.num.bit_length() > 53 or v.exp2 < -1074 or v.exponent > 1023:
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


def _dy_directed(v: DyadicValue, width: int, away: bool) -> DyadicValue:
    """v if on the precision-``width`` grid, else its neighbor away from zero or not."""
    if v.sign == 0:
        return DY_ZERO
    sig, rem, unit = _grid_split(v, width)
    return _canonical(v.sign * (sig + (away and rem > 0)), unit)


def dy_floor(v: DyadicValue, p: int) -> DyadicValue:
    """Largest precision-p grid point <= v."""
    return _dy_directed(v, p, v.sign < 0)


def dy_ceil(v: DyadicValue, p: int) -> DyadicValue:
    """Smallest precision-p grid point >= v."""
    return _dy_directed(v, p, v.sign > 0)


def dy_trunc(v: DyadicValue, width: int) -> DyadicValue:
    """Truncation of v toward zero to ``width`` significand bits."""
    return _dy_directed(v, width, False)


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


_LIMB = 27
_LIMB_MASK = (1 << _LIMB) - 1
_CHUNK = 1 << 25  # terms per bincount


def _mantissas(values) -> tuple[np.ndarray, np.ndarray]:
    """int64 ``(M, e)`` with ``values == M * 2**e`` and ``|M| < 2**53``; ValueError
    for a value not finite or not exactly binary64 (say ``2**53 + 1``, an int)."""
    try:
        x = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an int beyond the binary64 range
        raise ValueError("finite binary64 values required") from None
    # a float equals an int only if exact; tolist gives numpy ints as Python ints.
    # A numpy integer scalar compares with a float as a float, which may round
    # only at 2**53 and above: compare those few as Python ints.
    given = values.tolist() if isinstance(values, np.ndarray) else list(values)
    big = np.flatnonzero(np.abs(x) >= 2.0**53).tolist()
    if (not np.isfinite(x).all() or x.tolist() != given
            or any(int(given[i]) != int(x[i]) for i in big)):
        raise ValueError("finite binary64 values required")
    m, e = np.frexp(x)
    return np.ldexp(m, 53).astype(np.int64), e - 53


def _accumulate(m: np.ndarray, e: np.ndarray) -> DyadicValue:
    """Exact sum of ``m * 2**e`` over int64 arrays with ``|m| < 2**54``: the limbs
    ``m & (2**27 - 1)`` at e and ``m >> 27`` at e + 27 summed in a float64 bucket
    per exponent (exact: at most 2**53 in a chunk of 2**25 terms), then as ints."""
    low = int(e.min(initial=0))  # any low <= min(e) will do
    k = e - low
    size = int(k.max(initial=0)) + 1 + _LIMB
    total = 0
    for i in range(0, len(m), _CHUNK):
        mi, ki = m[i:i + _CHUNK], k[i:i + _CHUNK]
        sums = np.bincount(ki, mi & _LIMB_MASK, size)
        sums[_LIMB:] += np.bincount(ki, mi >> _LIMB, size - _LIMB)
        nz = np.flatnonzero(sums)
        total += sum(int(s) << j for j, s in zip(nz.tolist(), sums[nz].tolist()))
    return _canonical(total, low)


def exact_sum(values) -> DyadicValue:
    """Exact sum of a sequence of floats."""
    return _accumulate(*_mantissas(values))


def exact_dot(a, b) -> DyadicValue:
    """Exact inner product of two equal-length float sequences, from the mantissas'
    26/27-bit halves: ``hi*hi``, ``hi*lo + lo*hi`` and ``lo*lo`` are below 2**54."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    (ma, ea), (mb, eb) = _mantissas(a), _mantissas(b)
    ha, la, hb, lb = ma >> _LIMB, ma & _LIMB_MASK, mb >> _LIMB, mb & _LIMB_MASK
    e = ea + eb
    return _accumulate(np.concatenate((ha * hb, ha * lb + la * hb, la * lb)),
                       np.concatenate((e + 2 * _LIMB, e + _LIMB, e)))


def rel_error(value: float, exact: DyadicValue) -> float:
    """|value - exact| / |exact| computed without intermediate rounding."""
    if exact.sign == 0:
        return 0.0 if value == 0.0 else math.inf
    # value * d = n, exact * d = sign * num * 2**sh: one int / int, as float(Fraction)
    n, d = value.as_integer_ratio()
    sh = exact.exp2 + d.bit_length() - 1
    x = exact.num << max(sh, 0)
    return abs((n << max(-sh, 0)) - exact.sign * x) / x
