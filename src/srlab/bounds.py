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
from dataclasses import dataclass

from .dyadic import DY_ZERO, dy_add, dy_from_float, dy_mul
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must be in (0, 1)")
        if self.kappa < 1.0:
            raise ValueError("kappa must be >= 1")


def unit_roundoff(p: int) -> float:
    """u_p = 2**(1-p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return math.ldexp(1.0, 1 - p)


def tail_roundoff(p: int, r: int | str) -> float:
    """u_{p+r}; exactly 0.0 in the ideal limit."""
    if r == IDEAL:
        return 0.0
    return unit_roundoff(p + r)


def gamma(n: int, u: float) -> float:
    """(1+u)**n - 1, evaluated as expm1(n*log1p(u)) to keep relative accuracy."""
    if n < 0 or u < 0:
        raise ValueError("gamma needs n >= 0 and u >= 0")
    if n == 0 or u == 0.0:
        return 0.0
    try:
        return math.expm1(n * math.log1p(u))
    except OverflowError:
        return math.inf


def b_envelope(m: int, p: int, r: int | str) -> float:
    """gamma_m(u_p + u_{p+r}) - gamma_m(u_p), without cancellation.

    Uses the identity (1+u+v)**m - (1+u)**m = (1+u)**m * ((1+v/(1+u))**m - 1).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
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


def _cond(terms) -> float:
    """sum|t_i| / |sum t_i| of exact dyadic terms; +inf when the sum is zero
    but some term is not."""
    acc = DY_ZERO
    acc_abs = DY_ZERO
    for v in terms:
        acc = dy_add(acc, v)
        acc_abs = dy_add(acc_abs, -v if v.sign < 0 else v)
    if acc.sign == 0:
        return 1.0 if acc_abs.sign == 0 else math.inf
    return float(abs(acc_abs.as_fraction()) / abs(acc.as_fraction()))


def cond_sum(a) -> float:
    """Condition number sum|a_i| / |sum a_i| of a summation, via exact arithmetic.

    Returns +inf when the exact sum is zero but some entry is not.
    """
    if len(a) == 0:
        raise ValueError("empty vector")
    return _cond(dy_from_float(x) for x in a)


def cond_inner(a, b) -> float:
    """Condition number of an inner product: cond_sum of the exact products."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) == 0:
        raise ValueError("empty vectors")
    return _cond(dy_mul(dy_from_float(x), dy_from_float(y)) for x, y in zip(a, b))


def _bias_bound(m: int, q: BoundQuery) -> float:
    return _scaled(q.kappa, gamma(m, tail_roundoff(q.p, q.r)))


def _ah_bound(m: int, q: BoundQuery) -> float:
    u = unit_roundoff(q.p)
    stochastic = math.sqrt(u * gamma(2 * m, u)) * math.sqrt(math.log(2.0 / q.lam))
    return _scaled(q.kappa, stochastic + b_envelope(m, q.p, q.r))


def _bc_bound(m: int, q: BoundQuery) -> float:
    u = unit_roundoff(q.p)
    stochastic = math.sqrt(gamma(m, u * u) / q.lam)
    return _scaled(q.kappa, stochastic + b_envelope(m, q.p, q.r))


def bias_bound_sum(q: BoundQuery) -> float:
    """Bound on |E(result) - sum| / |sum| for recursive summation."""
    return _bias_bound(q.n - 1, q)


def ah_bound_sum(q: BoundQuery) -> float:
    """Martingale-concentration bound on the summation relative error.

    kappa * (sqrt(u_p * gamma_{2(n-1)}(u_p)) * sqrt(ln(2/lambda))
             + gamma_{n-1}(u_p + u_{p+r}) - gamma_{n-1}(u_p)),
    valid with probability at least 1 - lambda.
    """
    return _ah_bound(q.n - 1, q)


def bc_bound_sum(q: BoundQuery) -> float:
    """Variance/Chebyshev bound on the summation relative error.

    kappa * (sqrt(gamma_{n-1}(u_p^2) / lambda)
             + gamma_{n-1}(u_p + u_{p+r}) - gamma_{n-1}(u_p)).
    """
    return _bc_bound(q.n - 1, q)


def det_bound_sum(n: int, p: int, kappa: float = 1.0) -> float:
    """Deterministic worst case kappa * gamma_{n-1}(u_p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _scaled(kappa, gamma(n - 1, unit_roundoff(p)))


def bias_bound_inner(q: BoundQuery) -> float:
    """Inner-product version of bias_bound_sum (n roundings per term chain)."""
    return _bias_bound(q.n, q)


def ah_bound_inner(q: BoundQuery) -> float:
    return _ah_bound(q.n, q)


def bc_bound_inner(q: BoundQuery) -> float:
    return _bc_bound(q.n, q)


def rule_of_thumb_r(n: int) -> int:
    """ceil(log2(n) / 2): the random-bit budget that keeps the deterministic
    truncation term from dominating the sqrt(n)*u_p stochastic term.

    Pure integer arithmetic, exact at powers of two.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return ((n - 1).bit_length() + 1) // 2


def powerset_expansion(xs, ys) -> float:
    """Sum over all subsets K of prod_{i in K} x_i * prod_{j not in K} y_j.

    Equals prod(x_k + y_k); the empty product is 1.  Brute-force over the
    2**n subsets, so lengths are capped at 20.  The subset terms are summed
    with math.fsum to keep the result faithful to the exact expansion.
    """
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    n = len(xs)
    if n > 20:
        raise ValueError("power-set expansion capped at length 20")
    terms = []
    for mask in range(1 << n):
        prod = 1.0
        for i in range(n):
            prod *= xs[i] if (mask >> i) & 1 else ys[i]
        terms.append(prod)
    return math.fsum(terms)
