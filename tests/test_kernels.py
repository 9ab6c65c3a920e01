import math
from fractions import Fraction

import pytest

from srlab.dyadic import dy_from_float, exact_sum
from srlab.kernels import (
    gd_rosenbrock,
    inner_product,
    recursive_sum,
    rosenbrock_f,
    rosenbrock_grad,
)
from srlab.rounding import SubstrateRangeError
from srlab.sr import RngStream, rn_config, sr_config

from test_sr import FixedStream


def test_sum_single_element():
    res = recursive_sum([3.5], sr_config(11, 3), RngStream(0, 0))
    assert res.value == 3.5
    assert res.rel_error == 0.0
    assert res.op_count == 0


def test_sum_of_ones_stagnates_at_2048():
    # at p=11 the grid spacing above 2048 is 2, so +1 always ties back down
    cfg = rn_config(11)
    rng = RngStream(0, 0)
    res = recursive_sum([1.0] * 2048, cfg, rng)
    assert res.value == 2048.0
    longer = recursive_sum([1.0] * 2600, cfg, rng)
    assert longer.value == 2048.0
    assert longer.op_count == 2599


def test_sum_exact_when_partial_sums_representable():
    vec = [1.0, 2.0, 4.0, 8.0]  # partial sums 3, 7, 15 fit in 11 bits
    for cfg in (rn_config(11), sr_config(11, 1), sr_config(11, 7)):
        res = recursive_sum(vec, cfg, FixedStream([]))
        assert res.value == 15.0
        assert res.rel_error == 0.0


def test_sum_schedule_has_n_minus_1_roundings():
    vec = [1.0 + k * 2.0 ** -9 for k in range(50)]
    res = recursive_sum(vec, sr_config(11, 4), RngStream(1, 0), trace=True)
    assert res.op_count == 49
    assert len(res.records) == 49


def test_sum_validates_inputs():
    with pytest.raises(ValueError):
        recursive_sum([], sr_config(11, 3), RngStream(0, 0))
    with pytest.raises(ValueError):
        recursive_sum([1.0, 1.0 + 2.0 ** -30], sr_config(11, 3), RngStream(0, 0))


def test_sum_range_error_reports_index():
    vec = [1.5 * 2.0 ** 1023, 2.0 ** 1021]  # p=2 values; RN of the sum overflows
    with pytest.raises(SubstrateRangeError, match="index 1"):
        recursive_sum(vec, rn_config(2), RngStream(0, 0))


def test_sum_expansion_matches_trace():
    # value == sum of a_i * prod of (1 + delta) over later roundings
    vec = [0.75, 1.25, 0.5, 1.5, 0.875]
    res = recursive_sum(vec, sr_config(8, 2), RngStream(9, 0), trace=True)
    deltas = [r.delta for r in res.records]
    recon = 0.0
    for i, a in enumerate(vec):
        prod = 1.0
        for d in deltas[max(i - 1, 0):]:
            prod *= 1.0 + d
        recon += a * prod
    assert res.value == pytest.approx(recon, rel=1e-12)


def test_dot_single_term_is_product_rounding():
    cfg = sr_config(2, 2)
    outcomes = {inner_product([1.5], [1.5], cfg, FixedStream([z])).value for z in range(4)}
    assert outcomes == {2.0, 3.0}
    res = inner_product([1.5], [1.5], cfg, FixedStream([0]))
    assert res.op_count == 1


def test_dot_zero_tail_exact():
    a = [1.0, 0.0, 0.0]
    b = [1.0, 1.5, -2.0]
    res = inner_product(a, b, sr_config(2, 2), FixedStream([]))
    assert res.value == 1.0
    assert res.rel_error == 0.0


def test_dot_schedule_has_2n_minus_1_roundings():
    a = [1.0 + k * 2.0 ** -7 for k in range(17)]
    b = [1.0 - k * 2.0 ** -8 for k in range(17)]
    res = inner_product(a, b, sr_config(11, 4), RngStream(2, 0), trace=True)
    assert res.op_count == 33
    assert len(res.records) == 33


def test_dot_full_distribution_enumerable():
    # a = b = [1.5, 1.5] at p=2, r=2: y-hat is 4 w.p. 3/4 and 6 w.p. 1/4
    cfg = sr_config(2, 2)
    counts = {}
    for z1 in range(4):
        for z2 in range(4):
            for z3 in range(4):
                res = inner_product([1.5, 1.5], [1.5, 1.5], cfg, FixedStream([z1, z2, z3]))
                counts[res.value] = counts.get(res.value, 0) + 1
    assert counts == {4.0: 48, 6.0: 16}
    # Monte Carlo agrees within 4 standard errors (sd = sqrt(0.75))
    total = 0.0
    trials = 4000
    for t in range(trials):
        total += inner_product([1.5, 1.5], [1.5, 1.5], cfg, RngStream(3, t)).value
    se = math.sqrt(0.75 / trials)
    assert abs(total / trials - 4.5) <= 4 * se


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        inner_product([1.0], [1.0, 2.0], sr_config(11, 3), RngStream(0, 0))


def test_rosenbrock_values():
    assert rosenbrock_f((1.0, 1.0)) == 0.0
    assert rosenbrock_f((0.0, 0.0)) == 1.0
    assert rosenbrock_grad((0.0, 0.0)) == (-2.0, 0.0)
    # (1-0.5)**2 + 100*(0.5-0.25)**2 and its exact gradient
    assert rosenbrock_f((0.5, 0.5)) == 6.5
    assert rosenbrock_grad((0.5, 0.5)) == (-51.0, 50.0)


def test_gd_zero_gradient_is_fixed_point():
    traj = gd_rosenbrock((1.0, 1.0), 0.001, 50, sr_config(11, 8), RngStream(0, 0))
    assert all(pt == (1.0, 1.0) for pt in traj.iterates)
    assert all(loss == 0.0 for loss in traj.loss_series)
    assert not traj.diverged


def test_gd_zero_iterations():
    traj = gd_rosenbrock((0.5, 0.5), 0.001, 0, rn_config(11), RngStream(0, 0))
    assert traj.iterates == [(0.5, 0.5)]
    assert len(traj.loss_series) == 1


def test_gd_one_substrate_step():
    # from (0,0) with t = 0.001 the first step lands at (0.002, 0);
    # loss frozen from a 40-digit evaluation of f at that float
    traj = gd_rosenbrock((0.0, 0.0), 0.001, 1, rn_config(53), RngStream(0, 0))
    assert traj.iterates[1] == (0.001 * 2.0, 0.0)
    assert traj.loss_series[1] == pytest.approx(0.99600400159999999992, rel=1e-14)


def test_gd_deterministic_given_stream():
    a = gd_rosenbrock((0.0, 0.0), 0.001, 200, sr_config(11, 6), RngStream(5, 7))
    b = gd_rosenbrock((0.0, 0.0), 0.001, 200, sr_config(11, 6), RngStream(5, 7))
    assert a.iterates == b.iterates
    assert a.loss_series == b.loss_series


def test_gd_divergence_flag():
    traj = gd_rosenbrock((0.0, 0.0), 1e120, 10, rn_config(53), RngStream(0, 0))
    assert traj.diverged
    assert len(traj.iterates) < 11


def test_gd_loss_overflow_is_divergence():
    # (1 - x1) ** 2 raises OverflowError instead of returning inf
    traj = gd_rosenbrock((0.5, 0.5), 0.01, 200, sr_config(11, 3), RngStream(1, 0))
    assert traj.diverged
    assert len(traj.loss_series) == len(traj.iterates) < 201
    assert all(math.isfinite(loss) for loss in traj.loss_series)


def test_gd_non_finite_gradient_is_divergence():
    # the loss at this start is already inf (the * term overflows without
    # raising), and so is its gradient: the start itself has diverged
    traj = gd_rosenbrock((1e120, 0.0), 0.001, 10, rn_config(11), RngStream(0, 0))
    assert traj.diverged
    assert traj.iterates == []
    assert traj.loss_series == []


def test_gd_start_loss_overflow_is_divergence():
    # (1 - 1e200) ** 2 raises OverflowError at the start point itself
    for cfg in (sr_config(11, 3), rn_config(11), rn_config(53)):
        traj = gd_rosenbrock((1e200, 0.0), 0.001, 3, cfg, RngStream(0, 0))
        assert traj.diverged
        assert traj.iterates == []
        assert traj.loss_series == []


def test_gd_rejects_bad_args():
    with pytest.raises(ValueError):
        gd_rosenbrock((0.0, 0.0), -1.0, 5, rn_config(11), RngStream(0, 0))
    with pytest.raises(ValueError):
        gd_rosenbrock((0.0, 0.0), 0.001, -1, rn_config(11), RngStream(0, 0))


def test_exact_reference_uses_dyadic_sum():
    vec = [0.1, 0.2, 0.3]
    res = recursive_sum(vec, rn_config(53), RngStream(0, 0))
    assert res.exact.as_fraction() == sum(Fraction(v) for v in vec)
    assert res.exact == exact_sum(vec)
    # the binary64 run is itself inexact against the dyadic reference
    assert res.rel_error == pytest.approx(
        float(abs(Fraction(0.1 + 0.2 + 0.3) / sum(Fraction(v) for v in vec) - 1)), rel=1e-6
    )


def test_precomputed_exact_is_honored():
    vec = [1.0, 2.0]
    fake = dy_from_float(4.0)
    res = recursive_sum(vec, rn_config(11), RngStream(0, 0), exact=fake)
    assert res.exact == fake
    assert res.rel_error == 0.25


# ------------------------------------------------------------ error contract


def test_sum_sr_overflow_reports_index():
    # at p=2 the sum 1.75 * 2**1023 lies halfway up to 2**1024; draw 1 carries
    vec = [1.5 * 2.0 ** 1023, 2.0 ** 1021]
    with pytest.raises(SubstrateRangeError) as exc:
        recursive_sum(vec, sr_config(2, 1), FixedStream([1]))
    assert str(exc.value) == "result overflows the binary64 substrate (at step index 1)"


@pytest.mark.parametrize("cfg", [rn_config(11), sr_config(11, 3)], ids=["rn", "sr3"])
def test_sum_non_finite_partial_reports_index(cfg):
    with pytest.raises(SubstrateRangeError) as exc:
        recursive_sum([1.7e308, 1.7e308], cfg, FixedStream([]), validate=False)
    assert str(exc.value) == "partial result left the substrate range (at step index 1)"


@pytest.mark.parametrize("cfg", [rn_config(11), sr_config(11, 3)], ids=["rn", "sr3"])
@pytest.mark.parametrize("index", [0, 2])
def test_dot_non_finite_product_reports_index(cfg, index):
    a = [1.0, 1.0, 1.0]
    b = [1.0, 1.0, 1.0]
    a[index] = b[index] = 2.0 ** 600
    with pytest.raises(SubstrateRangeError) as exc:
        inner_product(a, b, cfg, FixedStream([]))
    assert str(exc.value) == (
        f"partial result left the substrate range (at step index {index})"
    )


def test_trace_records_every_sr_rounding_and_no_rn_rounding():
    # partial sums 2 and 3 are on the p=11 grid: recorded, but nothing drawn
    vec = [1.0, 1.0, 1.0, 2.0 ** -12, 1.0]
    res = recursive_sum(vec, sr_config(11, 3), RngStream(4, 0), trace=True)
    assert len(res.records) == res.op_count == 4
    assert [r.delta for r in res.records[:2]] == [0.0, 0.0]
    res = inner_product(vec, vec, sr_config(11, 3), RngStream(4, 0), trace=True)
    assert len(res.records) == res.op_count == 9
    assert recursive_sum(vec, rn_config(11), RngStream(4, 0), trace=True).records == []
    assert inner_product(vec, vec, rn_config(11), RngStream(4, 0), trace=True).records == []
    assert recursive_sum(vec, sr_config(11, 3), RngStream(4, 0)).records is None

