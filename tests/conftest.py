import math
import random

import pytest
from hypothesis import strategies as st


def random_substrate_value(rng: random.Random, emin: int = -60, emax: int = 60) -> float:
    """A random finite binary64 value with full 52-bit mantissa entropy."""
    mantissa = rng.getrandbits(52)
    exponent = rng.randint(emin, emax)
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * math.ldexp(1.0 + mantissa * 2.0 ** -52, exponent)


def random_substrate_values(seed: int, count: int, emin: int = -60, emax: int = 60):
    rng = random.Random(seed)
    return [random_substrate_value(rng, emin, emax) for _ in range(count)]


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
