import math
from dataclasses import replace

import numpy as np
import pytest

from srlab.bounds import unit_roundoff
from srlab.experiments import (
    _INV_2_53,
    ExperimentSpec,
    SummaryRow,
    aggregate_trials,
    _draw_uniform_p,
    csv_name,
    estimate_coverage,
    run_bounds_table,
    run_rosenbrock,
    run_sum_experiment,
    run_trials,
    write_rows,
)
from srlab.rounding import FpFormat, round_nearest
from srlab.kernels import gd_rosenbrock
from srlab.sr import IDEAL, RngStream, sr_config

TINY_SUM = ExperimentSpec(
    kind="sum", p=11, r_list=(3, 7), n_grid=(10, 30), trials=6, seed=42
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(kind="sum", n_grid=(100, 10))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="sum", p=11, r_list=(50,))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="sum", trials=0)


def test_sum_experiment_structure():
    rows = run_sum_experiment(TINY_SUM)
    modes = {"rn", "sr3", "sr7"}
    assert len(rows) == len(TINY_SUM.n_grid) * len(modes)
    assert {r.mode for r in rows} == modes
    assert all(r.value >= 0.0 and math.isfinite(r.value) for r in rows)


def test_sum_experiment_deterministic():
    a = run_sum_experiment(TINY_SUM)
    b = run_sum_experiment(TINY_SUM)
    assert a == b


def test_single_trial_rn_column_deterministic():
    spec = replace(TINY_SUM, trials=1, r_list=(3,))
    rows = run_sum_experiment(spec)
    assert all(r.stderr == 0.0 for r in rows)


def test_trial_results_paired_across_modes():
    errors = run_trials(replace(TINY_SUM, trials=3))
    assert list(errors) == [(n, m) for n in (10, 30) for m in ("rn", "sr3", "sr7")]
    assert all(len(trials) == 3 for trials in errors.values())


def test_dot_experiment_structure():
    spec = ExperimentSpec(kind="dot", p=11, r_list=(7,), n_grid=(5, 20), trials=4, seed=3)
    rows = run_sum_experiment(spec)
    assert len(rows) == 2 * 2  # two n values, modes rn and sr7


def test_trial_stream_contract():
    a = RngStream(9, 0)
    b = RngStream(9, 1)
    assert a.next_bits(64) != b.next_bits(64)
    c = RngStream(9, 0)
    c2 = RngStream(9, 0)
    assert [c.next_bits(16) for _ in range(32)] == [c2.next_bits(16) for _ in range(32)]


def test_estimate_coverage():
    assert estimate_coverage([0.0, 0.0], 0.5) == 1.0
    assert estimate_coverage([0.1, 0.9], 0.5) == 0.5
    assert estimate_coverage([-0.2, 0.2], 0.3) == 1.0
    with pytest.raises(ValueError):
        estimate_coverage([], 1.0)


def test_bounds_table_rows():
    spec = ExperimentSpec(
        kind="bounds-table", p=11, r_list=(3, 7, IDEAL), n_grid=(2, 100, 1000), lam=0.1
    )
    rows = run_bounds_table(spec)
    by = {(r.x, r.mode): r.value for r in rows}
    assert len(rows) == 3 * (1 + 2 * 3)
    # n = 2 row: deterministic bound is u_p, bias tail enters the bc column
    assert by[(2, "det")] == pytest.approx(unit_roundoff(11), rel=1e-12)
    # probabilistic below deterministic for n >= 100 at sensible r
    for n in (100, 1000):
        assert by[(n, "bc_sr7")] < by[(n, "det")]
        assert by[(n, "ah_srideal")] < by[(n, "det")]
    # bc columns non-increasing in r at fixed n
    for n in (2, 100, 1000):
        assert by[(n, "bc_sr3")] >= by[(n, "bc_sr7")] >= by[(n, "bc_srideal")]


def test_rosenbrock_rows_and_baseline():
    spec = ExperimentSpec(
        kind="rosenbrock", p=11, r_list=(8,), iters=20, trials=3, seed=1
    )
    rows = run_rosenbrock(spec, start=(1.0, 1.0))
    modes = {"fp64", "rn", "sr8"}
    assert {r.mode for r in rows} == modes
    assert len(rows) == 21 * len(modes)
    # starting at the minimum nothing moves in any mode
    assert all(r.value == 0.0 for r in rows)


def test_rosenbrock_progress_from_origin():
    spec = ExperimentSpec(
        kind="rosenbrock", p=11, r_list=(8,), iters=300, trials=4, seed=1
    )
    rows = run_rosenbrock(spec, start=(0.0, 0.0))
    final = {r.mode: r.value for r in rows if r.x == 300}
    first = {r.mode: r.value for r in rows if r.x == 0}
    assert final["fp64"] < first["fp64"]
    assert final["sr8"] < first["sr8"]


def test_csv_format(tmp_path):
    rows = [SummaryRow(10, "rn", 1.0 / 3.0, 0.25), SummaryRow(20, "sr3", 2.0, 0.0)]
    path = write_rows(tmp_path / "out.csv", rows)
    text = path.read_text().splitlines()
    assert text[0] == "n_or_k,mode,value,stderr"
    assert text[1] == "10,rn,0.33333333333333331,0.25"
    assert text[2] == "20,sr3,2,0"
    assert float(text[1].split(",")[2]) == 1.0 / 3.0  # 17 digits round-trip


_EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0,
]


def test_csv_lines_match_format_rendering(tmp_path):
    rows = [SummaryRow(k, "sr3", v, 0.0) for k, v in enumerate(_EDGE_VALUES)]
    path = write_rows(tmp_path / "edge.csv", rows)
    want = "n_or_k,mode,value,stderr\n" + "".join(
        f"{k},sr3,{v:.17g},{0.0:.17g}\n" for k, v in enumerate(_EDGE_VALUES)
    )
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1:] == [
        "0,sr3,nan,0",
        "1,sr3,inf,0",
        "2,sr3,-inf,0",
        "3,sr3,-0,0",
        "4,sr3,4.9406564584124654e-324,0",
        "5,sr3,1.7976931348623157e+308,0",
        "6,sr3,0.33333333333333331,0",
    ]


def test_csv_name():
    assert csv_name(TINY_SUM) == "sum_p11_r3-7.csv"
    spec = ExperimentSpec(kind="rosenbrock", p=11, r_list=(3, IDEAL))
    assert csv_name(spec, (0.5, 0.5)) == "rosenbrock_p11_r3-ideal_start0.5-0.5.csv"


def test_input_file_fixes_vector(tmp_path):
    data = tmp_path / "vec.txt"
    data.write_text("# fixed input\n0.5\n0.25\n1.0\n")
    spec = ExperimentSpec(
        kind="sum", p=11, r_list=(3,), trials=2, seed=5, input_file=str(data)
    )
    errors = run_trials(spec)
    assert {n for n, _ in errors} == {3}
    rows = aggregate_trials(errors)
    assert all(r.value == 0.0 for r in rows)  # sums of these are exact at p=11


def test_input_file_dot(tmp_path):
    data = tmp_path / "ab.txt"
    data.write_text("1.0, 2.0\n0.5, 0.5\n")
    spec = ExperimentSpec(
        kind="dot", p=11, r_list=(3,), trials=2, seed=5, input_file=str(data)
    )
    errors = run_trials(spec)
    assert {n for n, _ in errors} == {2}


class _WordStream:
    """Serves fixed 53-bit words to ``bits_array`` and counts them."""

    def __init__(self, words):
        self.words = words
        self.drawn = 0

    def bits_array(self, k, size):
        assert k == 53
        out = np.array(self.words[self.drawn:self.drawn + size], dtype=np.uint64)
        self.drawn += size
        return out


@pytest.mark.parametrize("p", [2, 11, 24, 53])
def test_draw_uniform_p_matches_scalar_rounding(p):
    top = (1 << 53) - 1
    words = [0, 1, 2, top, top - 1] + np.random.default_rng(p).integers(
        0, top, size=200, endpoint=True
    ).tolist()
    fmt = FpFormat(p)
    rng = _WordStream(words + [7])
    got = _draw_uniform_p(rng, len(words), fmt)
    assert rng.drawn == len(words)
    want = [round_nearest(float(w) * _INV_2_53, fmt) for w in words]
    assert [type(v) for v in got] == [float] * len(words)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    # the same words from a real stream, with the position left after n words
    a, b = RngStream(5, 1), RngStream(5, 1)
    got = _draw_uniform_p(a, 300, fmt)
    want = [round_nearest(float(w) * _INV_2_53, fmt) for w in b.bits_array(53, 300)]
    assert got == want
    assert a.next_bits(64) == b.next_bits(64)


def test_rosenbrock_aggregation_of_huge_losses_is_finite():
    # the sr3 trajectories from (0.5, 0.5) reach losses near 1e245 before
    # diverging; squaring their deviations must not overflow to an inf spread
    spec = ExperimentSpec(
        kind="rosenbrock", p=11, r_list=(3,), iters=50, step=0.01, trials=2, seed=1
    )
    rows = [r for r in run_rosenbrock(spec, (0.5, 0.5)) if r.mode == "sr3"]
    big = [r for r in rows if math.isfinite(r.value) and r.value > 1e200]
    assert big
    for row in big:
        a, b = (
            gd_rosenbrock((0.5, 0.5), 0.01, 50, sr_config(11, 3), RngStream(1, t))
            .loss_series[row.x]
            for t in range(2)
        )
        # two trials: mean (a+b)/2 and standard error |a-b|/2
        assert row.value == a / 2 + b / 2
        assert row.stderr == pytest.approx(abs(a - b) / 2, rel=1e-15)


def test_rosenbrock_start_overflow_rows_are_nan():
    spec = ExperimentSpec(kind="rosenbrock", p=11, r_list=(3,), iters=3, trials=2)
    rows = run_rosenbrock(spec, (1e200, 0.0))
    assert len(rows) == 4 * 3
    assert all(math.isnan(r.value) for r in rows)


def test_sum_aggregation_of_huge_errors_is_finite(tmp_path):
    # the exact sum is 2**-1000 while the sr3 sums miss it by about 2**-12,
    # so the relative errors are near 1e297; squaring their deviations must
    # not overflow to an inf spread
    data = tmp_path / "vec.txt"
    data.write_text("".join(f"{v!r}\n" for v in (1.0, 2.0**-12, -1.0, -2.0**-12, 2.0**-1000)))
    spec = ExperimentSpec(
        kind="sum", p=11, r_list=(3, 7), trials=8, seed=1, input_file=str(data)
    )
    errors = run_trials(spec)
    row = next(r for r in aggregate_trials(errors) if r.mode == "sr3")
    assert (row.value, row.stderr) == (3.2699847631416849e297, 6.5399695262833699e296)
    # the same statistics of the errors scaled by hand
    scaled = np.ldexp(np.array(errors[5, "sr3"]), -1000)
    assert row.value == math.ldexp(float(scaled.mean()), 1000)
    assert row.stderr == math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(8), 1000)

