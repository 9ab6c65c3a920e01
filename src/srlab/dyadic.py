"""Exact dyadic-rational arithmetic used as an independent test oracle.

An exact value is a :class:`fractions.Fraction` whose denominator is a power
of two.  All rounding-related quantities (floor/ceil on the precision-p grid,
truncation to a given width, grid spacing, round-up probabilities) are
recomputed here from integer shifts, deliberately sharing no code with the
float-based primitives they check; only the integer-argument rule
``check_int`` is shared.  The exact references :func:`exact_sum` and
:func:`exact_dot` split every term into 27-bit limbs, sum the limbs per
exponent in numpy and add the few bucket sums as Python integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .rounding import check_int


def _split(v: Fraction) -> tuple[int, int]:
    """``(numerator, exp2)`` with ``v == numerator * 2**exp2``; ValueError unless
    v is dyadic, its denominator a power of two (not so ``Fraction(1, 3)``)."""
    n, d = v.as_integer_ratio()
    if d & (d - 1):
        raise ValueError(f"dyadic value required, got {v!r}")
    return n, 1 - d.bit_length()


def _dyadic(n: int, exp2: int) -> Fraction:
    return Fraction(n << exp2) if exp2 >= 0 else Fraction(n, 1 << -exp2)


def dy_exponent(v: Fraction) -> int:
    """Normalized exponent e with |v| in [2**e, 2**(e+1))."""
    n, exp2 = _split(v)
    if n == 0:
        raise ValueError("zero has no normalized exponent")
    return n.bit_length() - 1 + exp2


def dy_from_float(x: float) -> Fraction:
    try:
        return Fraction.from_float(x)
    except (OverflowError, ValueError):  # infinity or nan
        raise ValueError(f"finite value required, got {x!r}") from None


def dy_to_float(v: Fraction) -> float:
    """Exact conversion back to binary64; error if not representable."""
    n, d = v.as_integer_ratio()
    try:
        x = n / d  # correctly rounded, as float(v); OverflowError beyond the range
        if x.as_integer_ratio() == (n, d):
            return x
    except OverflowError:
        pass
    raise ValueError("value is not representable in the binary64 substrate")


def _grid_split(n: int, exp2: int, p: int) -> tuple[int, int, int]:
    """Split ``|n| * 2**exp2`` on the precision-p grid: (floor_sig, remainder,
    unit_exp), with floor_sig and remainder 0 for n == 0.

    |n| * 2**exp2 = (floor_sig + remainder * 2**(exp2 - unit_exp)) * 2**unit_exp
    with 0 <= remainder < 2**(unit_exp - exp2); floor_sig is in [2**(p-1), 2**p).
    """
    num = abs(n)
    unit = num.bit_length() + exp2 - p
    shift = exp2 - unit
    if shift >= 0:
        return num << shift, 0, unit
    return num >> -shift, num & ((1 << -shift) - 1), unit


def _dy_directed(v: Fraction, width: int, away: bool) -> Fraction:
    """v if on the precision-``width`` grid, else its neighbor away from zero or not."""
    n, exp2 = _split(v)
    sig, rem, unit = _grid_split(n, exp2, width)
    sig += away and rem > 0
    return _dyadic(-sig if n < 0 else sig, unit)


def dy_floor(v: Fraction, p: int) -> Fraction:
    """Largest precision-p grid point <= v."""
    return _dy_directed(v, check_int("p", p, 1), v.numerator < 0)


def dy_ceil(v: Fraction, p: int) -> Fraction:
    """Smallest precision-p grid point >= v."""
    return _dy_directed(v, check_int("p", p, 1), v.numerator > 0)


def dy_trunc(v: Fraction, width: int) -> Fraction:
    """Truncation of v toward zero to ``width`` significand bits."""
    return _dy_directed(v, check_int("width", width, 1), False)


def dy_ulp(v: Fraction, p: int) -> Fraction:
    return _dyadic(1, dy_exponent(v) - check_int("p", p, 1) + 1)


def dy_round_nearest(v: Fraction, p: int) -> Fraction:
    """Nearest precision-p grid point, ties to even."""
    p = check_int("p", p, 1)
    n, exp2 = _split(v)
    sig, rem, unit = _grid_split(n, exp2, p)
    if rem:
        half = 1 << (unit - exp2 - 1)
        if rem > half or (rem == half and sig & 1):
            sig += 1
    return _dyadic(-sig if n < 0 else sig, unit)


def dy_q(x: Fraction, p: int, r: int | float = math.inf) -> Fraction:
    """Round-up probability of x on the precision-p grid, exactly.

    With r = inf this is (x - floor(x)) / ulp(x).  With an integer r >= 1 the
    numerator uses x truncated to p+r bits instead of x itself, so the
    result is an integer multiple of 2**-r (and may equal 1 for negative
    inputs whose magnitude truncates onto the grid).
    """
    p = check_int("p", p, 1)
    if r != math.inf:
        r = check_int("r", r, 1)
    n, exp2 = _split(x)
    _, rem, unit = _grid_split(n, exp2, p)
    if rem == 0:
        return Fraction(0)
    t = unit - exp2  # number of sub-grid bits carrying the remainder
    if t > r:  # the remainder truncated to r bits
        rem, t = rem >> (t - r), r
    return Fraction(rem if n > 0 else (1 << t) - rem, 1 << t)


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
    if not np.isfinite(x).all():
        raise ValueError("finite binary64 values required")
    # a float64 array (returned as is) is binary64 by construction.  Otherwise a
    # float equals an int only if exact; tolist gives numpy ints as Python ints.
    # A numpy integer scalar compares with a float as a float, which may round
    # only at 2**53 and above: compare those few as Python ints.
    if x is not values:
        given = values.tolist() if isinstance(values, np.ndarray) else list(values)
        big = np.flatnonzero(np.abs(x) >= 2.0**53).tolist()
        if x.tolist() != given or any(int(given[i]) != int(x[i]) for i in big):
            raise ValueError("finite binary64 values required")
    m, e = np.frexp(x)
    return np.ldexp(m, 53).astype(np.int64), e - 53


def _accumulate(m: np.ndarray, e: np.ndarray) -> Fraction:
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
    return _dyadic(total, low)


def exact_sum(values) -> Fraction:
    """Exact sum of a sequence of floats."""
    return _accumulate(*_mantissas(values))


def exact_dot(a, b) -> Fraction:
    """Exact inner product of two equal-length float sequences, from the mantissas'
    26/27-bit halves: ``hi*hi``, ``hi*lo + lo*hi`` and ``lo*lo`` are below 2**54."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    (ma, ea), (mb, eb) = _mantissas(a), _mantissas(b)
    ha, la, hb, lb = ma >> _LIMB, ma & _LIMB_MASK, mb >> _LIMB, mb & _LIMB_MASK
    e = ea + eb
    return _accumulate(np.concatenate((ha * hb, ha * lb + la * hb, la * lb)),
                       np.concatenate((e + 2 * _LIMB, e + _LIMB, e)))


def rel_error(value: float, exact: Fraction) -> float:
    """|value - exact| / |exact| computed without intermediate rounding."""
    if exact == 0:
        return 0.0 if value == 0.0 else math.inf
    # value = n/d and exact = N/D: one int / int, rounded once as float(Fraction) is
    n, d = value.as_integer_ratio()
    N, D = exact.numerator, exact.denominator
    return abs(n * D - N * d) / (abs(N) * d)
