import contextlib
import math
import random

import pytest
from hypothesis import strategies as st

from srlab import kernels
from srlab.dyadic import dy_from_float, dy_to_float, dy_trunc


def random_substrate_value(rng: random.Random, emin: int = -60, emax: int = 60) -> float:
    """A random finite binary64 value with full 52-bit mantissa entropy."""
    mantissa = rng.getrandbits(52)
    exponent = rng.randint(emin, emax)
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * math.ldexp(1.0 + mantissa * 2.0 ** -52, exponent)


def random_substrate_values(seed: int, count: int, emin: int = -60, emax: int = 60):
    rng = random.Random(seed)
    return [random_substrate_value(rng, emin, emax) for _ in range(count)]


def sr_record(c: float, y: float, cfg) -> tuple[float, float]:
    """``(delta, beta)`` of one SR rounding of c to y: the realized relative
    error, and the relative error of truncating c to p + r bits, taken from
    the dyadic oracle; both are 0.0 at c == 0.0."""
    if c == 0.0:
        return 0.0, 0.0
    fl = dy_to_float(dy_trunc(dy_from_float(c), cfg.p + cfg.r_bits))
    return (y - c) / c, (fl - c) / c


@contextlib.contextmanager
def recorded_sr_roundings():
    """Record every SR rounding the kernels make through ``kernels.sr_round``.

    Yields a list that grows by ``(c, y, delta, beta)`` per rounding, in
    order; an RN run records nothing.
    """
    records = []
    sr_round = kernels.sr_round

    def recorder(c, cfg, rng):
        y = sr_round(c, cfg, rng)
        records.append((c, y, *sr_record(c, y, cfg)))
        return y

    kernels.sr_round = recorder
    try:
        yield records
    finally:
        kernels.sr_round = sr_round


@pytest.fixture
def py_rng():
    return random.Random(0xC0FFEE)


# Any finite binary64 value: both signs, +-0, subnormals, the top binade, and
# significands of few bits (on the grid of most precisions) or all ones
# (whose rounding up carries, up to 2**1024 at the top).
substrate_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        lambda sign, sig, exp: sign * math.ldexp(sig, exp),
        st.sampled_from((1.0, -1.0)),
        st.one_of(
            st.integers(0, (1 << 53) - 1),
            st.integers(0, 52).map(lambda b: (1 << 53) - (1 << b)),
        ),
        st.integers(-1126, 971),
    ),
)
