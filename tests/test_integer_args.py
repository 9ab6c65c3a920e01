"""Every integer argument of the API follows one rule: a bool or a float (an
integer-valued one included) raises ValueError, and a numpy integer gives
the result of the equal Python int.  The Philox key words of ``RngStream``
have their own tables in test_sr.py."""

import numpy as np
import pytest

from srlab.bounds import (
    BoundQuery, ah_bound_sum, b_envelope, det_bound_sum, gamma, rule_of_thumb_r,
    tail_roundoff, unit_roundoff,
)
from srlab.cli import _check
from srlab.dyadic import (
    dy_ceil, dy_floor, dy_from_float, dy_q, dy_round_nearest, dy_trunc, dy_ulp,
)
from srlab.experiments import (
    ExperimentSpec, _doubling_grid, run_rosenbrock, run_sum_experiment,
)
from srlab.kernels import gd_rosenbrock
from srlab.rounding import FpFormat, truncate
from srlab.sr import RngStream, SrConfig, sr_config, sr_sample


_SUM = dict(kind="sum", r_list=(3,), n_grid=(10,), trials=2)
_ROUND = dict(value=1.3, p=11, r=3, samples=4, seed=0)
_V = dy_from_float(1.3)


def _sum(**fields):
    return list(zip(*run_sum_experiment(ExperimentSpec(**dict(_SUM, **fields)))))


# entry point -> (call with the integer argument v, a valid value of v)
ENTRIES = {
    "FpFormat p": (lambda v: FpFormat(v), 11),
    "sr_config p": (lambda v: sr_config(v, 3), 11),
    "SrConfig r": (lambda v: SrConfig(FpFormat(11), v), 7),
    "truncate width": (lambda v: truncate(1.2345678, v), 7),
    "next_bits k": (lambda v: RngStream(0, 0).next_bits(v), 8),
    "bits_array k": (lambda v: RngStream(0, 0).bits_array(v, 5).tolist(), 8),
    "bits_array size": (lambda v: RngStream(0, 0).bits_array(8, v).tolist(), 5),
    "sr_sample size": (
        lambda v: sr_sample(1.0, sr_config(11, 3), RngStream(0, 0), v).tolist(), 5
    ),
        "BoundQuery n": (lambda v: ah_bound_sum(BoundQuery(n=v, p=11, r=3)), 100),
    "BoundQuery p": (lambda v: ah_bound_sum(BoundQuery(n=100, p=v, r=3)), 11),
    "BoundQuery r": (lambda v: ah_bound_sum(BoundQuery(n=100, p=11, r=v)), 3),
    "unit_roundoff p": (unit_roundoff, 11),
    "tail_roundoff r": (lambda v: tail_roundoff(11, v), 3),
    "gamma n": (lambda v: gamma(v, 2.0**-10), 100),
    "b_envelope m": (lambda v: b_envelope(v, 11, 3), 100),
    "det_bound_sum n": (lambda v: det_bound_sum(v, 11), 100),
    "rule_of_thumb_r n": (rule_of_thumb_r, 100),
    "ExperimentSpec p": (lambda v: _sum(p=v), 11),
    "ExperimentSpec trials": (lambda v: _sum(trials=v), 2),
    "ExperimentSpec seed": (lambda v: _sum(seed=v), 3),
    "ExperimentSpec n_grid": (lambda v: _sum(n_grid=(4, v)), 10),
    "ExperimentSpec iters": (
        lambda v: list(zip(*run_rosenbrock(
            ExperimentSpec("rosenbrock", r_list=(3,), iters=v, trials=2), (0.5, 0.5)
        ))),
        5,
    ),
    "gd_rosenbrock iters": (
        lambda v: gd_rosenbrock((0.5, 0.5), 1e-3, v, sr_config(11, 3),
                                RngStream(0, 0)).loss_series,
        5,
    ),
    "cli round --samples": (lambda v: _check("round", dict(_ROUND, samples=v)), 4),
    "cli round --seed": (lambda v: _check("round", dict(_ROUND, seed=v)), 3),
    "cli --n-max": (_doubling_grid, 100),
    "dy_floor p": (lambda v: dy_floor(_V, v), 7),
    "dy_ceil p": (lambda v: dy_ceil(_V, v), 7),
    "dy_trunc width": (lambda v: dy_trunc(_V, v), 7),
    "dy_round_nearest p": (lambda v: dy_round_nearest(_V, v), 7),
    "dy_ulp p": (lambda v: dy_ulp(_V, v), 7),
    "dy_q p": (lambda v: dy_q(_V, v, 3), 11),
    "dy_q r": (lambda v: dy_q(_V, 11, v), 3),
}


@pytest.mark.parametrize("bad", [1.5, True, 11.0, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_non_integer_argument_is_refused(entry, bad):
    call, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("cast", [np.int64, np.uint64], ids=lambda c: c.__name__)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_numpy_integer_argument_acts_as_the_int(entry, cast):
    call, good = ENTRIES[entry]
    assert call(cast(good)) == call(good)


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e.startswith("dy_")])
def test_oracle_refuses_a_width_below_one(entry):
    # the exact oracle has no upper limit, but a width or r below 1 is no grid
    call, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=">= 1, got 0"):
        call(0)
