"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v -s``.  Statistical checks use
fixed seeds, so outcomes are reproducible run to run.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from srlab.bounds import (
    BoundQuery,
    ah_bound_sum,
    b_envelope,
    bc_bound_inner,
    bc_bound_sum,
    bias_bound_sum,
    det_bound_sum,
    rule_of_thumb_r,
    tail_roundoff,
    unit_roundoff,
)
from srlab.cli import main as cli_main
from srlab.dyadic import dy_from_float, dy_q, exact_sum
from srlab.experiments import (
    ExperimentSpec,
    aggregate_trials,
    estimate_coverage,
    run_trials,
)
from srlab.kernels import gd_rosenbrock, recursive_sum
from srlab.rounding import FpFormat, round_nearest, truncate, ulp
from srlab.sr import (
    IDEAL,
    RngStream,
    enumerate_distribution,
    rn_config,
    sr_config,
    sr_round,
    sr_sample,
)

from conftest import random_substrate_values, recorded_sr_roundings
from test_bounds import powerset_expansion
from test_sr import FixedStream

P_CYCLE = (2, 8, 11, 24)


def _report(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {num:02d}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}) failed: {failures[:5]}"


# ------------------------------------------------------------- criterion 1


def test_criterion_01_exact_bernoulli_law():
    failures = []
    values = random_substrate_values(101, 10_000)
    cfgs = {(p, r): sr_config(p, r) for p in P_CYCLE for r in range(1, 13)}
    for i, x in enumerate(values):
        p = P_CYCLE[i % 4]
        v = dy_from_float(x)
        for r in range(1, 13):
            lo, hi, ups = enumerate_distribution(x, cfgs[(p, r)])
            k = dy_q(v, p, r) * (1 << r)
            if k.denominator != 1 or ups != k:
                failures.append((x, p, r, ups, k))
    # integrity of the single-draw API against the enumeration helper
    for i, x in enumerate(values[:100]):
        p = P_CYCLE[i % 4]
        for r in (1, 2, 4, 6, 8):
            cfg = cfgs[(p, r)]
            lo, hi, ups = enumerate_distribution(x, cfg)
            outs = [sr_round(x, cfg, FixedStream([z])) for z in range(1 << r)]
            got_ups = sum(1 for o in outs if o == hi) if lo != hi else 0
            if got_ups != ups or any(o not in (lo, hi) for o in outs):
                failures.append(("api", x, p, r))
    _report(1, "exact Bernoulli law (exhaustive draws == oracle numerator)", failures)


# --------------------------------------------------------- criteria 2 and 3


@pytest.fixture(scope="module")
def bias_variance_cases():
    N = 100_000
    r_cycle = (1, 2, 4, 6, 8)
    cases = []
    values = random_substrate_values(202, 200)
    for i, x in enumerate(values):
        p = P_CYCLE[i % 4]
        r = r_cycle[i % 5]
        cfg = sr_config(p, r)
        samples = sr_sample(x, cfg, RngStream(777, i), N)
        q = dy_q(dy_from_float(x), p, r)
        cases.append((x, p, r, samples, float(q), truncate(x, p + r), ulp(x, FpFormat(p))))
    return cases, N


def test_criterion_02_bias_identity(bias_variance_cases):
    cases, N = bias_variance_cases
    bad = []
    for x, p, r, samples, q, fl, u in cases:
        exact_std = u * math.sqrt(q * (1.0 - q))
        mean = float(samples.mean())
        if exact_std == 0.0:
            ok = mean == fl
        else:
            ok = abs(mean - fl) <= 4.0 * exact_std / math.sqrt(N)
        if not ok:
            bad.append((x, p, r))
    failures = [f"{len(bad)}/200 cases outside 4 sigma: {bad[:3]}"] if len(bad) > 2 else []
    _report(2, "bias identity (sample mean -> truncated value)", failures)


def test_criterion_03_variance_identity(bias_variance_cases):
    cases, N = bias_variance_cases
    bad, cap_bad = [], []
    for x, p, r, samples, q, fl, u in cases:
        sigma2 = u * u * q * (1.0 - q)
        s2 = float(samples.var(ddof=1))
        mu4 = u ** 4 * q * (1.0 - q) * ((1.0 - q) ** 3 + q ** 3)
        var_s2 = (mu4 - sigma2 * sigma2 * (N - 3) / (N - 1)) / N
        tol = 5.0 * math.sqrt(max(var_s2, 0.0))
        if abs(s2 - sigma2) > tol:
            bad.append((x, p, r))
        if s2 > x * x * unit_roundoff(p) ** 2 / 4.0 + tol:
            cap_bad.append((x, p, r))
    failures = []
    if len(bad) > 2:
        failures.append(f"{len(bad)}/200 cases outside the 5-sigma interval: {bad[:3]}")
    if cap_bad:
        failures.append(f"variance cap exceeded: {cap_bad[:3]}")
    _report(3, "variance identity (ulp^2 q(1-q) and the x^2 u_p^2/4 cap)", failures)


# --------------------------------------------------------- criteria 4 and 5

SUM_R_LIST = (3, 6, 7, 8, 10, IDEAL)
SUM_TRIALS = 200


@pytest.fixture(scope="module")
def sum_experiment():
    spec = ExperimentSpec(
        kind="sum",
        p=11,
        r_list=SUM_R_LIST,
        n_grid=(10, 100, 1000, 6000),
        trials=SUM_TRIALS,
        seed=31415,
    )
    trials = run_trials(spec)
    by = {(n, mode): (value, stderr) for n, mode, value, stderr in zip(*aggregate_trials(trials))}
    return spec, trials, by


def test_criterion_04_summation_error_vs_mode(sum_experiment):
    spec, _, by = sum_experiment
    failures = []
    rn, _ = by[(6000, "rn")]
    sr7, _ = by[(6000, "sr7")]
    if not rn >= 10.0 * sr7:
        failures.append(f"(a) rn {rn:.3g} < 10 x sr7 {sr7:.3g} at n=6000")
    labels = ["sr3", "sr6", "sr7", "sr8", "sr10", "sr_ideal"]
    for n in spec.n_grid:
        for lab1, lab2 in zip(labels, labels[1:]):
            (a, a_se), (b, b_se) = by[(n, lab1)], by[(n, lab2)]
            slack = 3.0 * math.hypot(a_se, b_se)
            if b > a + slack:
                failures.append(f"(b) n={n}: {lab2} {b:.3g} > {lab1} {a:.3g} + 3se")
        (r10, _), (ideal, _) = by[(n, "sr10")], by[(n, "sr_ideal")]
        if r10 > 2.0 * ideal:
            failures.append(f"(c) n={n}: sr10 {r10:.3g} > 2 x ideal {ideal:.3g}")
    _report(4, "summation: rn/sr gap, monotone in r, near-ideal at r=10", failures)


def test_criterion_05_probabilistic_coverage(sum_experiment):
    spec, trials, _ = sum_experiment
    failures = []
    floor = 0.9 - 3.0 * math.sqrt(0.09 / SUM_TRIALS)
    for n in spec.n_grid:
        errors = trials[n, "sr7"]
        bound = bc_bound_sum(BoundQuery(n=n, p=11, r=7, lam=0.1))
        cov = estimate_coverage(errors, bound)
        if cov < floor:
            failures.append(f"sum n={n}: coverage {cov:.3f} < {floor:.3f}")
    dot_spec = ExperimentSpec(
        kind="dot", p=11, r_list=(7,), n_grid=(10, 100, 1000), trials=SUM_TRIALS, seed=927
    )
    dot_trials = run_trials(dot_spec)
    for n in dot_spec.n_grid:
        errors = dot_trials[n, "sr7"]
        bound = bc_bound_inner(BoundQuery(n=n, p=11, r=7, lam=0.1))
        cov = estimate_coverage(errors, bound)
        if cov < floor:
            failures.append(f"dot n={n}: coverage {cov:.3f} < {floor:.3f}")
    _report(5, "coverage of the variance/Chebyshev bound at lambda=0.1", failures)


# ------------------------------------------------------------- criterion 6


def test_criterion_06_bias_bound_summation():
    T = 400
    fmt8 = FpFormat(8)
    failures = []
    for n in (100, 1000):
        draw = RngStream(606, n)
        vec = [round_nearest(draw.next_bits(53) * 2.0 ** -53, fmt8) for _ in range(n)]
        exact = exact_sum(vec)
        y = float(exact)
        for r in (2, 4):
            cfg = sr_config(8, r)
            vals = np.array(
                [
                    recursive_sum(vec, cfg, RngStream(1000 + r, t), exact=exact, validate=False).value
                    for t in range(T)
                ]
            )
            bias_est = abs(float(vals.mean()) - y) / abs(y)
            se = float(vals.std(ddof=1)) / math.sqrt(T) / abs(y)
            bound = bias_bound_sum(BoundQuery(n=n, p=8, r=r))
            if bias_est > bound + 4.0 * se:
                failures.append(f"n={n} r={r}: |bias| {bias_est:.3g} > {bound:.3g} + 4se {se:.3g}")
    _report(6, "Monte Carlo bias within kappa*gamma_{n-1}(u_{p+r}) + 4 se", failures)


# ------------------------------------------------------------- criterion 7


def test_criterion_07_bound_shape_and_ordering():
    failures = []
    u24 = unit_roundoff(24)
    for n in (64, 256, 1024, 4096):  # n * u_p <= 2**-11, well inside 2**-4
        for lam in (0.01, 0.1, 0.5):
            for r in (4, 8, IDEAL):
                got = ah_bound_sum(BoundQuery(n=n, p=24, r=r, lam=lam))
                first_order = (
                    math.sqrt(2.0 * n) * math.sqrt(math.log(2.0 / lam)) * u24
                    + n * tail_roundoff(24, r)
                )
                if abs(got - first_order) > 0.10 * first_order:
                    failures.append(f"shape n={n} lam={lam} r={r}: {got:.4g} vs {first_order:.4g}")
    for n in (100, 1000, 6000):
        det = det_bound_sum(n, 11)
        for r in (7, 10, IDEAL):
            q = BoundQuery(n=n, p=11, r=r, lam=0.1)
            if not (ah_bound_sum(q) < det and bc_bound_sum(q) < det):
                failures.append(f"ordering n={n} r={r}")
    _report(7, "first-order bound shape (10%) and probabilistic < deterministic", failures)


# ------------------------------------------------------------- criterion 8


def test_criterion_08_rosenbrock_update_modes():
    iters, t = 5000, 1e-3
    start = (0.0, 0.0)
    base = gd_rosenbrock(start, t, iters, rn_config(53), RngStream(0, 0)).loss_series[-1]
    rn = gd_rosenbrock(start, t, iters, rn_config(11), RngStream(0, 0)).loss_series[-1]
    cfg = sr_config(11, 8)
    finals = [
        gd_rosenbrock(start, t, iters, cfg, RngStream(808, trial)).loss_series[-1]
        for trial in range(100)
    ]
    sr_mean = float(np.mean(finals))
    failures = []
    if not rn >= 10.0 * sr_mean:
        failures.append(f"p=11 rn final {rn:.4g} < 10 x sr8 mean {sr_mean:.4g}")
    if not sr_mean <= 3.0 * base:
        failures.append(f"sr8 mean {sr_mean:.4g} > 3 x binary64 final {base:.4g}")
    _report(8, "gradient descent: rn stagnates, sr8 tracks the binary64 run", failures)


# ------------------------------------------------------------- criterion 9


def test_criterion_09_rule_of_thumb(capsys):
    failures = []
    for n, want in ((6000, 7), (5000, 7), (64000, 8)):
        got = rule_of_thumb_r(n)
        if got != want:
            failures.append(f"rule_of_thumb_r({n}) = {got}, want {want}")
        code = cli_main(["suggest-r", "--n", str(n)])
        out = capsys.readouterr().out.strip()
        if code != 0 or out != str(want):
            failures.append(f"cli suggest-r {n} -> {out!r} (exit {code})")
    with capsys.disabled():
        _report(9, "random-bit rule of thumb (6000, 5000, 64000 -> 7, 7, 8)", failures)


# ------------------------------------------------------------ criterion 10


def _criterion_10_powerset_cases(rng: random.Random):
    for case in range(100):
        n = rng.randint(1, 12)
        xs = [1.0 + (rng.random() - 0.5) * 2.0 ** -6 for _ in range(n)]
        ys = [(rng.random() - 0.5) * 2.0 ** -12 for _ in range(n)]
        yield case, xs, ys


def _criterion_10_sums(rng: random.Random):
    """``(case, r, records)`` of criterion 10's SR sums, drawn from rng after
    its power-set cases; records are those of ``recorded_sr_roundings``."""
    fmt11 = FpFormat(11)
    for case in range(100):
        r = (2, 5)[case % 2]
        cfg = sr_config(11, r)
        vec = [
            round_nearest((rng.random() * 3.75 + 0.25) * rng.choice((-1.0, 1.0)), fmt11)
            for _ in range(12)
        ]
        with recorded_sr_roundings() as records:
            recursive_sum(vec, cfg, RngStream(717, case))
        yield case, r, records


def test_criterion_10_powerset_oracle_and_envelope():
    failures = []
    rng = random.Random(1010)
    for case, xs, ys in _criterion_10_powerset_cases(rng):
        direct = math.prod(x + y for x, y in zip(xs, ys))
        got = powerset_expansion(xs, ys)
        if abs(got - direct) > 2.0 ** -40 * abs(direct):
            failures.append(f"powerset case {case}: {got!r} vs {direct!r}")

    for case, r, records in _criterion_10_sums(rng):
        deltas = [delta for _, _, delta, _ in records]
        alphas = [delta - beta for _, _, delta, beta in records]
        betas = [beta for _, _, _, beta in records]
        for j in range(len(deltas)):
            m = len(deltas) - j
            b_term = math.prod(1.0 + d for d in deltas[j:]) - math.prod(
                1.0 + a for a in alphas[j:]
            )
            env = b_envelope(m, 11, r)
            if abs(b_term) > env * (1.0 + 1e-9):
                failures.append(f"envelope case {case} suffix {j}: |B|={abs(b_term):.3g} > {env:.3g}")
        full = math.prod(1.0 + d for d in deltas)
        via_powerset = powerset_expansion([1.0 + a for a in alphas], betas)
        if abs(via_powerset - full) > max(1e-12, 2.0 ** -40 * abs(full)):
            failures.append(f"powerset/records mismatch case {case}")
    _report(10, "power-set expansion oracle and the suffix-product envelope", failures)


def test_criterion_10_records_are_pinned():
    # sha256 of every (delta, beta) in hex, with "|" after each case
    rng = random.Random(1010)
    for _ in _criterion_10_powerset_cases(rng):
        pass
    digest = hashlib.sha256()
    count = 0
    for _, _, records in _criterion_10_sums(rng):
        for _, _, delta, beta in records:
            digest.update(f"{delta.hex()},{beta.hex()};".encode())
            count += 1
        digest.update(b"|")
    assert count == 1100
    assert digest.hexdigest() == (
        "43d9bc4d872008d7af2273818ab3f0c7eb814cb6636688e31f18f761c4d4dbb6"
    )
