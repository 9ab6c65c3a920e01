import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srlab import kernels
from srlab.dyadic import dy_from_float, exact_sum
from srlab.kernels import (
    GdTrajectory,
    _stepper,
    gd_rosenbrock,
    inner_product,
    recursive_sum,
    rosenbrock_f,
    rosenbrock_grad,
)
from srlab.rounding import SubstrateRangeError, is_representable, round_nearest
from srlab.sr import _BLOCK, IDEAL, RngStream, rn_config, sr_config

from conftest import random_substrate_values, recorded_sr_roundings
from test_sr import FixedStream


def test_sum_single_element():
    res = recursive_sum([3.5], sr_config(11, 3), RngStream(0, 0))
    assert res.value == 3.5
    assert res.rel_error == 0.0
    assert res.op_count == 0


def test_one_next_bits_call_per_word_across_a_width_change_and_a_refill(monkeypatch):
    # a word count taken by wrapping RngStream.next_bits at class level holds
    # only if a draw that re-masks or refills the block makes no second call
    calls = []
    next_bits = RngStream.next_bits

    def counted(rng, k):
        calls.append(k)
        return next_bits(rng, k)

    monkeypatch.setattr(RngStream, "next_bits", counted)
    fmt = sr_config(11).fmt
    a = [round_nearest(v, fmt) for v in random_substrate_values(7, 1500, -8, 8)]
    rng = RngStream(5, 0)
    with recorded_sr_roundings() as records:
        recursive_sum(a, sr_config(11, 3), rng)  # 3-bit words, then 7-bit
        recursive_sum(a, sr_config(11, 7), rng)  # ones in mid-block
    off_grid = sum(not is_representable(c, fmt) for c, *_ in records)
    # the words consumed: the stream's next word is Philox word number `used`
    raw = np.random.Philox(key=[5, 0]).random_raw(4000).tolist()
    used = raw.index(next_bits(rng, 64))
    assert _BLOCK < used  # a refill was crossed
    assert len(calls) == used == off_grid


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
    with recorded_sr_roundings() as records:
        res = recursive_sum(vec, sr_config(11, 4), RngStream(1, 0))
    assert res.op_count == 49
    assert len(records) == 49


def test_sum_validates_inputs():
    with pytest.raises(ValueError):
        recursive_sum([], sr_config(11, 3), RngStream(0, 0))
    with pytest.raises(ValueError):
        recursive_sum([1.0, 1.0 + 2.0 ** -30], sr_config(11, 3), RngStream(0, 0))


def test_dot_refuses_empty_vectors():
    with pytest.raises(ValueError, match="empty input"):
        inner_product([], [], sr_config(11, 3), RngStream(0, 0))


def test_sum_range_error_reports_index():
    vec = [1.5 * 2.0 ** 1023, 2.0 ** 1021]  # p=2 values; RN of the sum overflows
    with pytest.raises(SubstrateRangeError, match="index 1"):
        recursive_sum(vec, rn_config(2), RngStream(0, 0))


def test_sum_expansion_matches_trace():
    # value == sum of a_i * prod of (1 + delta) over later roundings
    vec = [0.75, 1.25, 0.5, 1.5, 0.875]
    with recorded_sr_roundings() as records:
        res = recursive_sum(vec, sr_config(8, 2), RngStream(9, 0))
    deltas = [delta for _, _, delta, _ in records]
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
    with recorded_sr_roundings() as records:
        res = inner_product(a, b, sr_config(11, 4), RngStream(2, 0))
    assert res.op_count == 33
    assert len(records) == 33


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
    assert all(v == 1.0 for v in traj.x1 + traj.x2)
    assert all(loss == 0.0 for loss in traj.loss_series)
    assert not traj.diverged


def test_gd_zero_iterations():
    traj = gd_rosenbrock((0.5, 0.5), 0.001, 0, rn_config(11), RngStream(0, 0))
    assert (traj.x1, traj.x2) == ([0.5], [0.5])
    assert len(traj.loss_series) == 1


def test_gd_one_substrate_step():
    # from (0,0) with t = 0.001 the first step lands at (0.002, 0);
    # loss frozen from a 40-digit evaluation of f at that float
    traj = gd_rosenbrock((0.0, 0.0), 0.001, 1, rn_config(53), RngStream(0, 0))
    assert (traj.x1[1], traj.x2[1]) == (0.001 * 2.0, 0.0)
    assert traj.loss_series[1] == pytest.approx(0.99600400159999999992, rel=1e-14)


def test_gd_deterministic_given_stream():
    a = gd_rosenbrock((0.0, 0.0), 0.001, 200, sr_config(11, 6), RngStream(5, 7))
    b = gd_rosenbrock((0.0, 0.0), 0.001, 200, sr_config(11, 6), RngStream(5, 7))
    assert (a.x1, a.x2) == (b.x1, b.x2)
    assert a.loss_series == b.loss_series


def test_gd_divergence_flag():
    traj = gd_rosenbrock((0.0, 0.0), 1e120, 10, rn_config(53), RngStream(0, 0))
    assert traj.diverged
    assert len(traj.x1) == len(traj.x2) < 11


def test_gd_loss_overflow_is_divergence():
    # (1 - x1) ** 2 raises OverflowError instead of returning inf
    traj = gd_rosenbrock((0.5, 0.5), 0.01, 200, sr_config(11, 3), RngStream(1, 0))
    assert traj.diverged
    assert len(traj.loss_series) == len(traj.x1) == len(traj.x2) < 201
    assert all(math.isfinite(loss) for loss in traj.loss_series)


def test_gd_non_finite_gradient_is_divergence():
    # the loss at this start is already inf (the * term overflows without
    # raising), and so is its gradient: the start itself has diverged
    traj = gd_rosenbrock((1e120, 0.0), 0.001, 10, rn_config(11), RngStream(0, 0))
    assert traj.diverged
    assert traj.x1 == traj.x2 == []
    assert traj.loss_series == []


def test_gd_start_loss_overflow_is_divergence():
    # (1 - 1e200) ** 2 raises OverflowError at the start point itself
    for cfg in (sr_config(11, 3), rn_config(11), rn_config(53)):
        traj = gd_rosenbrock((1e200, 0.0), 0.001, 3, cfg, RngStream(0, 0))
        assert traj.diverged
        assert traj.x1 == traj.x2 == []
        assert traj.loss_series == []


def test_gd_rejects_bad_args():
    with pytest.raises(ValueError):
        gd_rosenbrock((0.0, 0.0), -1.0, 5, rn_config(11), RngStream(0, 0))
    with pytest.raises(ValueError):
        gd_rosenbrock((0.0, 0.0), 0.001, -1, rn_config(11), RngStream(0, 0))


def test_exact_reference_uses_dyadic_sum():
    vec = [0.1, 0.2, 0.3]
    res = recursive_sum(vec, rn_config(53), RngStream(0, 0))
    assert res.exact == sum(Fraction(v) for v in vec)
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


@pytest.mark.parametrize("index", [4, 8])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sum_sr_overflow_reports_a_late_index(sign, index):
    # zeros keep the partial sum on the grid, so only the step at index draws
    vec = [0.0] * 9
    vec[0], vec[index] = sign * 1.5 * 2.0 ** 1023, sign * 2.0 ** 1021
    with pytest.raises(SubstrateRangeError) as exc:
        recursive_sum(vec, sr_config(2, 1), FixedStream([1]))
    assert str(exc.value) == (
        f"result overflows the binary64 substrate (at step index {index})"
    )


@pytest.mark.parametrize("cfg", [rn_config(11), sr_config(11, 3)], ids=["rn", "sr3"])
@pytest.mark.parametrize("index", [3, 6])
def test_sum_non_finite_partial_reports_a_late_index(cfg, index):
    vec = [0.5] * 7
    vec[0] = vec[index] = 1.7e308
    with pytest.raises(SubstrateRangeError) as exc:
        recursive_sum(vec, cfg, RngStream(0, 0), validate=False)
    assert str(exc.value) == (
        f"partial result left the substrate range (at step index {index})"
    )


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
    with recorded_sr_roundings() as records:
        res = recursive_sum(vec, sr_config(11, 3), RngStream(4, 0))
    assert len(records) == res.op_count == 4
    assert [delta for _, _, delta, _ in records[:2]] == [0.0, 0.0]
    with recorded_sr_roundings() as records:
        res = inner_product(vec, vec, sr_config(11, 3), RngStream(4, 0))
    assert len(records) == res.op_count == 9
    with recorded_sr_roundings() as records:
        recursive_sum(vec, rn_config(11), RngStream(4, 0))
        inner_product(vec, vec, rn_config(11), RngStream(4, 0))
    assert records == []



# ------------------------------------------- Rosenbrock descent, reference loop


def _gd_reference(x0, t, iters, cfg, rng) -> GdTrajectory:
    """The descent loop evaluated through ``rosenbrock_f``, ``rosenbrock_grad``
    and ``round_nearest``: the reference ``gd_rosenbrock`` must reproduce."""
    fmt = cfg.fmt
    step = _stepper(cfg)
    x1 = round_nearest(x0[0], fmt)
    x2 = round_nearest(x0[1], fmt)
    xs1, xs2, losses, diverged = [], [], [], False
    try:
        loss = rosenbrock_f((x1, x2))
        for _ in range(iters):
            if not math.isfinite(loss):
                break
            xs1.append(x1)
            xs2.append(x2)
            losses.append(loss)
            g1, g2 = rosenbrock_grad((x1, x2))
            g1 = round_nearest(g1, fmt)
            g2 = round_nearest(g2, fmt)
            x1 = step(x1 - t * g1, cfg, rng)
            x2 = step(x2 - t * g2, cfg, rng)
            loss = rosenbrock_f((x1, x2))
        if math.isfinite(loss):
            xs1.append(x1)
            xs2.append(x2)
            losses.append(loss)
        else:
            diverged = True
    except (SubstrateRangeError, ValueError, OverflowError):
        diverged = True
    return GdTrajectory(xs1, xs2, losses, cfg.label, diverged)


_GD_STARTS = [
    (0.0, 0.0),
    (0.5, 0.5),
    (1.0, 1.0),  # the gradient is (-0.0, 0.0)
    (2.0 ** -500, 0.0),  # g2 is below 2**-960, outside the split guard
    (2.0 ** -520, 0.0),  # g2 is subnormal: rn and sr leave the range at once
    (1e77, 1e154),
    (1e120, 0.0),  # the start loss is inf
    (1e200, 0.0),  # the start loss raises OverflowError
    # signed zeros: both zeros of x1 give g1 = -2, and x2 = -0 steps to +0
    (-0.0, -0.0),
    (-0.0, 0.0),
    (0.0, -0.0),
]


@pytest.mark.parametrize("t", [0.001, 0.01])
@pytest.mark.parametrize("start", _GD_STARTS, ids=repr)
@pytest.mark.parametrize(
    "cfg",
    [rn_config(53), rn_config(11), sr_config(11, 3), sr_config(11),
     # at p = 4 the updates stall almost at once
     rn_config(4), sr_config(4, 1)],
    ids=lambda cfg: cfg.label if cfg.p != 4 else f"{cfg.label}_p4",
)
def test_gd_rosenbrock_matches_reference_loop(cfg, start, t):
    _assert_same_descent(cfg, start, t, 300)


# a subnormal start coordinate is refused before the descent begins
_coordinates = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0, allow_subnormal=False)


@given(
    p=st.integers(2, 53),
    r=st.integers(1, 51) | st.just(IDEAL),
    stochastic=st.booleans(),
    t=st.floats(1e-4, 0.1),
    start=st.tuples(_coordinates, _coordinates),
    iters=st.integers(0, 200),
)
# x1*x1 and t*g1 are below x1's last bit, so x1 stays while x2 flips from
# -0 to +0: an iterate equal to the last one, whose new floats are stored
@example(p=11, r=IDEAL, stochastic=False, t=1e-200, start=(1e-163, -0.0), iters=3)
@example(p=11, r=3, stochastic=True, t=1e-200, start=(1e-163, -0.0), iters=3)
@settings(max_examples=100, deadline=None)
def test_gd_rosenbrock_matches_reference_on_drawn_descents(p, r, stochastic, t, start, iters):
    if stochastic and p < 53:  # p = 53 leaves SR no random bit
        cfg = sr_config(p, r if r == IDEAL else 1 + (r - 1) % (53 - p))
    else:
        cfg = rn_config(p)
    _assert_same_descent(cfg, start, t, iters)


def _assert_same_descent(cfg, start, t, iters):
    got_rng, want_rng = RngStream(3, 1), RngStream(3, 1)
    got = gd_rosenbrock(start, t, iters, cfg, got_rng)
    want = _gd_reference(start, t, iters, cfg, want_rng)
    assert [v.hex() for v in got.x1] == [v.hex() for v in want.x1]
    assert [v.hex() for v in got.x2] == [v.hex() for v in want.x2]
    # the iterates are two coordinate lists, one point per loss
    assert len(got.x1) == len(got.x2) == len(got.loss_series)
    assert all(type(v) is float for v in got.x1 + got.x2)
    assert [v.hex() for v in got.loss_series] == [v.hex() for v in want.loss_series]
    assert got.diverged == want.diverged
    assert got.mode == want.mode
    assert got_rng.next_bits(64) == want_rng.next_bits(64)


def test_gd_rounds_one_gradient_per_iterate(monkeypatch):
    # two roundings place the start, then each gradient rounds two
    # coordinates: the first iterate's, and one more for each iterate that
    # differs (by value) from the one before it; a step that leaves the
    # iterate in place rounds the kept update again
    calls = []

    def counted(x, fmt):
        calls.append(x)
        return round_nearest(x, fmt)

    monkeypatch.setattr(kernels, "round_nearest", counted)
    for start, cfg, want in [
        ((0.5, 0.5), sr_config(11, 3), 2384),
        ((0.0, 0.0), sr_config(11, 8), 3366),
        ((-0.0, -0.0), sr_config(4, 1), 48),
    ]:
        calls.clear()
        traj = gd_rosenbrock(start, 1e-3, 2000, cfg, RngStream(1, 0))
        points = list(zip(traj.x1, traj.x2))
        moves = sum(points[k] != points[k - 1] for k in range(1, len(points) - 1))
        assert not traj.diverged
        assert len(calls) == 2 + 2 * (1 + moves) == want


def test_descent_keeps_no_copy_of_the_veltkamp_split():
    # the gradient goes to round_nearest: its split guard and constant live
    # in srlab.rounding, and kernels.py neither imports nor reads them
    tree = ast.parse(Path(kernels.__file__).read_text(encoding="utf-8"))
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert not imported & {"_SPLIT_MIN", "_SPLIT_MAX"}
    assert not any(isinstance(node, ast.Attribute) and node.attr == "split"
                   for node in ast.walk(tree))
