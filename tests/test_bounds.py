import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.bounds import (
    BoundQuery,
    ah_bound_inner,
    ah_bound_sum,
    b_envelope,
    bc_bound_inner,
    bc_bound_sum,
    bias_bound_inner,
    bias_bound_sum,
    cond_inner,
    cond_sum,
    det_bound_sum,
    gamma,
    rule_of_thumb_r,
    unit_roundoff,
)
from srlab.sr import IDEAL

mpmath.mp.dps = 40


def powerset_expansion(xs, ys) -> float:
    """Test oracle, also used by acceptance criterion 10.

    Sum over all subsets K of prod_{i in K} x_i * prod_{j not in K} y_j.

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


# Frozen values computed with a 40-digit mpmath evaluation of the closed
# forms; the library path goes through expm1/log1p instead.
GAMMA_5999_U18 = 0.046832107445936401
DET_6000_P11 = 348.16331092279625
AH_1000_P11_IDEAL = 0.13282155131018527
BC_6000_P11_R7 = 16.575263536889372
AH_INNER_1000_P11_R5 = 0.21513368782944323
BC_INNER_1000_P11_R5 = 0.1798404448857751

REL = 1e-12


def mp_gamma(n, u):
    return (1 + mpmath.mpf(u)) ** n - 1


def test_unit_roundoff():
    assert unit_roundoff(11) == 2.0 ** -10  # binary16-style precision
    assert unit_roundoff(1) == 1.0
    assert unit_roundoff(8) == 2.0 ** -7  # bfloat16-style precision
    with pytest.raises(ValueError):
        unit_roundoff(0)


def test_gamma_basics():
    assert gamma(1, 0.25) == pytest.approx(0.25, rel=1e-15)
    assert gamma(7, 0.0) == 0.0
    assert gamma(0, 0.5) == 0.0
    assert gamma(2, 0.5) == pytest.approx(1.25, rel=1e-15)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=1e-30, max_value=0.5, allow_nan=False),
)
@settings(max_examples=200)
def test_gamma_matches_mpmath(n, u):
    expect = mp_gamma(n, u)
    got = gamma(n, u)
    if n == 0:
        assert got == 0.0
    elif expect > 1.8e308:
        assert got == math.inf
    else:
        assert got == pytest.approx(float(expect), rel=1e-12)


@given(
    st.integers(min_value=0, max_value=10000),
    st.floats(min_value=1e-12, max_value=0.1, allow_nan=False),
)
@settings(max_examples=200)
def test_gamma_recurrence(m, u):
    # gamma_{m+1}(u) = gamma_m(u) * (1 + u) + u
    assert gamma(m + 1, u) == pytest.approx(gamma(m, u) * (1 + u) + u, rel=1e-10, abs=1e-300)


def test_cond_sum_examples():
    assert cond_sum([1.0, 1.0, 1.0]) == 1.0
    assert cond_sum([2.0, -1.0]) == 3.0
    assert cond_sum([1.0, -1.0]) == math.inf
    assert cond_sum([0.0, 0.0]) == 1.0
    # a finite ratio beyond binary64 reads as infinite, like a zero sum
    assert cond_sum([1e300, -1e300, 5e-324]) == math.inf
    with pytest.raises(ValueError):
        cond_sum([])


def test_cond_inner_examples():
    assert cond_inner([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert cond_inner([1.0, 1.0], [1.0, -1.0]) == math.inf
    assert cond_inner([1.0, 0.0], [1.0, 5.0]) == 1.0
    assert cond_inner([1e300, 1e300, 5e-324], [1e8, -1e8, 1.0]) == math.inf
    with pytest.raises(ValueError):
        cond_inner([1.0], [1.0, 2.0])


def test_negative_u_and_empty_vectors_are_refused():
    with pytest.raises(ValueError, match="u must be >= 0"):
        gamma(3, -1.0)
    with pytest.raises(ValueError, match="empty vectors"):
        cond_inner([], [])


def test_bias_bound_sum():
    assert bias_bound_sum(BoundQuery(n=1, p=11, r=7)) == 0.0
    q = BoundQuery(n=2, p=11, r=7, kappa=1.0)
    assert bias_bound_sum(q) == pytest.approx(2.0 ** -17, rel=REL)
    q = BoundQuery(n=6000, p=11, r=7)
    assert bias_bound_sum(q) == pytest.approx(GAMMA_5999_U18, rel=REL)


def test_ah_bound_sum():
    assert ah_bound_sum(BoundQuery(n=1, p=11, r=7)) == 0.0
    v01 = ah_bound_sum(BoundQuery(n=500, p=11, r=5, lam=0.01))
    v50 = ah_bound_sum(BoundQuery(n=500, p=11, r=5, lam=0.5))
    assert v01 > v50
    q = BoundQuery(n=1000, p=11, r=IDEAL, lam=0.1)
    assert ah_bound_sum(q) == pytest.approx(AH_1000_P11_IDEAL, rel=REL)


def test_bc_bound_sum():
    assert bc_bound_sum(BoundQuery(n=1, p=11, r=3)) == 0.0
    # ideal limit: the truncation tail is exactly zero
    q = BoundQuery(n=800, p=11, r=IDEAL, lam=0.1)
    u = unit_roundoff(11)
    assert bc_bound_sum(q) == math.sqrt(gamma(799, u * u) / 0.1)
    q = BoundQuery(n=6000, p=11, r=7, lam=0.1)
    assert bc_bound_sum(q) == pytest.approx(BC_6000_P11_R7, rel=REL)


def test_det_bound_sum():
    assert det_bound_sum(2, 11) == pytest.approx(2.0 ** -10, rel=REL)
    assert det_bound_sum(1, 11) == 0.0
    assert det_bound_sum(6000, 11) == pytest.approx(DET_6000_P11, rel=REL)


def test_inner_bounds():
    q = BoundQuery(n=1, p=11, r=7)
    assert bias_bound_inner(q) == pytest.approx(2.0 ** -17, rel=REL)
    # structural identity: inner(n) == sum(n+1)
    qi = BoundQuery(n=750, p=11, r=4, lam=0.3, kappa=2.0)
    qs = BoundQuery(n=751, p=11, r=4, lam=0.3, kappa=2.0)
    assert ah_bound_inner(qi) == ah_bound_sum(qs)
    assert bc_bound_inner(qi) == bc_bound_sum(qs)
    assert bias_bound_inner(qi) == bias_bound_sum(qs)
    q = BoundQuery(n=1000, p=11, r=5, lam=0.1)
    assert ah_bound_inner(q) == pytest.approx(AH_INNER_1000_P11_R5, rel=REL)
    assert bc_bound_inner(q) == pytest.approx(BC_INNER_1000_P11_R5, rel=REL)


def test_lambda_domain():
    with pytest.raises(ValueError):
        BoundQuery(n=10, p=11, r=3, lam=0.0)
    with pytest.raises(ValueError):
        BoundQuery(n=10, p=11, r=3, lam=1.0)
    with pytest.raises(ValueError):
        BoundQuery(n=0, p=11, r=3)
    for r in (-3, 0, "Ideal", 2.0, None, True, False):
        with pytest.raises(ValueError, match=r"r must be (an integer )?>= 1"):
            BoundQuery(n=100, p=11, r=r)
    # r past the 53 - p substrate bits is still a bound
    assert ah_bound_sum(BoundQuery(n=100, p=11, r=50)) > 0.0


def test_infinite_kappa_propagates():
    q = BoundQuery(n=100, p=11, r=3, kappa=math.inf)
    assert bc_bound_sum(q) == math.inf
    assert bias_bound_sum(BoundQuery(n=1, p=11, r=3, kappa=math.inf)) == 0.0


def test_b_envelope():
    assert b_envelope(0, 11, 7) == 0.0
    assert b_envelope(1, 11, 7) == pytest.approx(2.0 ** -17, rel=REL)
    assert b_envelope(5, 11, IDEAL) == 0.0
    # matches the difference of gammas computed in high precision
    u, v = mpmath.mpf(2) ** -10, mpmath.mpf(2) ** -17
    expect = float(mp_gamma(500, u + v) - mp_gamma(500, u))
    assert b_envelope(500, 11, 7) == pytest.approx(expect, rel=1e-11)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=2, max_value=30))
@settings(max_examples=200)
def test_b_envelope_monotone_in_m(m, p):
    r = min(5, 53 - p)
    assert b_envelope(m + 1, p, r) >= b_envelope(m, p, r)


def test_probabilistic_bounds_non_increasing_in_r():
    for n in (100, 1000, 6000):
        ah = [ah_bound_sum(BoundQuery(n=n, p=11, r=r)) for r in (1, 3, 7, 20, IDEAL)]
        bc = [bc_bound_sum(BoundQuery(n=n, p=11, r=r)) for r in (1, 3, 7, 20, IDEAL)]
        assert all(a >= b for a, b in zip(ah, ah[1:]))
        assert all(a >= b for a, b in zip(bc, bc[1:]))


def test_rule_of_thumb():
    assert rule_of_thumb_r(6000) == 7
    assert rule_of_thumb_r(5000) == 7
    assert rule_of_thumb_r(64000) == 8
    assert rule_of_thumb_r(4) == 1
    assert rule_of_thumb_r(2) == 1
    assert rule_of_thumb_r(16) == 2
    assert rule_of_thumb_r(17) == 3
    with pytest.raises(ValueError):
        rule_of_thumb_r(1)


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=300)
def test_rule_of_thumb_is_exact_ceiling(n):
    r = rule_of_thumb_r(n)
    # smallest integer r with 4**r >= n
    assert 4 ** r >= n
    assert r == 0 or 4 ** (r - 1) < n


def test_powerset_expansion_symbolic():
    # (x1+y1)(x2+y2) = x1x2 + x1y2 + y1x2 + y1y2
    assert powerset_expansion([2.0, 3.0], [5.0, 7.0]) == (2 + 5) * (3 + 7)
    assert powerset_expansion([2.0, 3.0, 4.0], [0.0, 0.0, 0.0]) == 24.0
    assert powerset_expansion([], []) == 1.0
    with pytest.raises(ValueError):
        powerset_expansion([1.0] * 21, [0.0] * 21)
    with pytest.raises(ValueError):
        powerset_expansion([1.0], [1.0, 2.0])


def test_powerset_expansion_matches_product(py_rng):
    for _ in range(50):
        n = py_rng.randint(1, 10)
        xs = [1.0 + (py_rng.random() - 0.5) * 2.0 ** -6 for _ in range(n)]
        ys = [(py_rng.random() - 0.5) * 2.0 ** -12 for _ in range(n)]
        direct = math.prod(x + y for x, y in zip(xs, ys))
        assert abs(powerset_expansion(xs, ys) - direct) <= 2.0 ** -40 * abs(direct)


@pytest.mark.parametrize("kappa", [math.nan, 0.5, -math.inf])
def test_kappa_below_one_or_nan_is_refused(kappa):
    # a nan condition number would make every bound nan
    with pytest.raises(ValueError, match="kappa must be >= 1"):
        BoundQuery(n=100, p=11, r=3, kappa=kappa)
    with pytest.raises(ValueError, match="kappa must be >= 1"):
        det_bound_sum(100, 11, kappa=kappa)
