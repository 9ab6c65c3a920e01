"""Closed-form error bounds for recursive summation and inner products.

All bounds are built from the accumulation factor gamma_n(u) = (1+u)**n - 1,
the unit roundoffs u_p = 2**(1-p) and u_{p+r} = 2**(1-p-r), a condition
number kappa, and a failure probability lambda.  Two probabilistic bound
families are provided: a martingale-concentration (Azuma-Hoeffding) form
and a variance-based (Bienayme-Chebyshev) form, each with a deterministic
truncation tail gamma_m(u_p + u_{p+r}) - gamma_m(u_p) that vanishes in the
ideal (infinite random bits) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .dyadic import exact_dot, exact_sum
from .rounding import check_int
from .sr import IDEAL


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by every closed-form bound."""

    n: int
    p: int
    r: int | str = IDEAL
    lam: float = 0.1
    kappa: float = 1.0

    def __post_init__(self):
        check_int("n", self.n, 1)
        check_int("p", self.p, 1)
        # any r >= 1 gives a bound, also past the 53 - p substrate bits
        if self.r != IDEAL:
            check_int("r", self.r, 1)
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must be in (0, 1)")
        if not self.kappa >= 1.0:  # nan fails too
            raise ValueError(f"kappa must be >= 1, got {self.kappa!r}")


def unit_roundoff(p: int) -> float:
    """u_p = 2**(1-p)."""
    return math.ldexp(1.0, 1 - check_int("p", p, 1))


def tail_roundoff(p: int, r: int | str) -> float:
    """u_{p+r}; exactly 0.0 in the ideal limit."""
    if r == IDEAL:
        return 0.0
    return unit_roundoff(p + check_int("r", r, 1))


def gamma(n: int, u: float) -> float:
    """(1+u)**n - 1, evaluated as expm1(n*log1p(u)) to keep relative accuracy."""
    if not u >= 0.0:  # nan fails too
        raise ValueError(f"u must be >= 0, got {u!r}")
    if check_int("n", n, 0) == 0 or u == 0.0:
        return 0.0
    try:
        return math.expm1(n * math.log1p(u))
    except OverflowError:
        return math.inf


def b_envelope(m: int, p: int, r: int | str) -> float:
    """gamma_m(u_p + u_{p+r}) - gamma_m(u_p), without cancellation.

    Uses the identity (1+u+v)**m - (1+u)**m = (1+u)**m * ((1+v/(1+u))**m - 1).
    """
    check_int("m", m, 0)
    u = unit_roundoff(p)
    v = tail_roundoff(p, r)
    if m == 0 or v == 0.0:
        return 0.0
    try:
        return math.exp(m * math.log1p(u)) * math.expm1(m * math.log1p(v / (1.0 + u)))
    except OverflowError:
        return math.inf


def _scaled(kappa: float, term: float) -> float:
    # an infinite condition number with a zero term still means zero error
    return 0.0 if term == 0.0 else kappa * term


def _cond(total: Fraction, total_abs: Fraction) -> float:
    """total_abs / |total| of the exact sums of |t_i| and t_i; +inf when the
    sum is zero but some term is not, or the ratio is beyond binary64."""
    if total == 0:
        return 1.0 if total_abs == 0 else math.inf
    try:
        return float(total_abs / abs(total))
    except OverflowError:
        return math.inf


def cond_sum(a) -> float:
    """Condition number sum|a_i| / |sum a_i| of a summation, via exact arithmetic.

    Returns +inf when the exact sum is zero but some entry is not.
    """
    if len(a) == 0:
        raise ValueError("empty vector")
    return _cond(exact_sum(a), exact_sum([abs(x) for x in a]))


def cond_inner(a, b) -> float:
    """Condition number of an inner product: cond_sum of the exact products."""
    if len(a) == 0:
        raise ValueError("empty vectors")
    return _cond(exact_dot(a, b), exact_dot([abs(x) for x in a], [abs(y) for y in b]))


def bias_bound_sum(q: BoundQuery) -> float:
    """Bound on |E(result) - sum| / |sum| for recursive summation."""
    return _scaled(q.kappa, gamma(q.n - 1, tail_roundoff(q.p, q.r)))


def ah_bound_sum(q: BoundQuery) -> float:
    """Martingale-concentration bound on the summation relative error.

    kappa * (sqrt(u_p * gamma_{2(n-1)}(u_p)) * sqrt(ln(2/lambda))
             + gamma_{n-1}(u_p + u_{p+r}) - gamma_{n-1}(u_p)),
    valid with probability at least 1 - lambda.
    """
    u = unit_roundoff(q.p)
    stochastic = math.sqrt(u * gamma(2 * (q.n - 1), u)) * math.sqrt(math.log(2.0 / q.lam))
    return _scaled(q.kappa, stochastic + b_envelope(q.n - 1, q.p, q.r))


def bc_bound_sum(q: BoundQuery) -> float:
    """Variance/Chebyshev bound on the summation relative error.

    kappa * (sqrt(gamma_{n-1}(u_p^2) / lambda)
             + gamma_{n-1}(u_p + u_{p+r}) - gamma_{n-1}(u_p)).
    """
    u = unit_roundoff(q.p)
    stochastic = math.sqrt(gamma(q.n - 1, u * u) / q.lam)
    return _scaled(q.kappa, stochastic + b_envelope(q.n - 1, q.p, q.r))


def det_bound_sum(n: int, p: int, kappa: float = 1.0) -> float:
    """Deterministic worst case kappa * gamma_{n-1}(u_p)."""
    BoundQuery(n, p, kappa=kappa)  # checks n, p and kappa
    return _scaled(kappa, gamma(n - 1, unit_roundoff(p)))


def bias_bound_inner(q: BoundQuery) -> float:
    """Inner-product version of bias_bound_sum.  n products round n times in a
    chain, as a sum of n + 1 terms does: each *_inner is its *_sum at n + 1."""
    return bias_bound_sum(replace(q, n=q.n + 1))


def ah_bound_inner(q: BoundQuery) -> float:
    return ah_bound_sum(replace(q, n=q.n + 1))


def bc_bound_inner(q: BoundQuery) -> float:
    return bc_bound_sum(replace(q, n=q.n + 1))


def rule_of_thumb_r(n: int) -> int:
    """ceil(log2(n) / 2): the random-bit budget that keeps the deterministic
    truncation term from dominating the sqrt(n)*u_p stochastic term.

    Pure integer arithmetic, exact at powers of two.
    """
    return ((check_int("n", n, 2) - 1).bit_length() + 1) // 2
