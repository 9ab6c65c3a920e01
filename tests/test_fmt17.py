"""The vectorized CSV formatter writes every line as ``"%d,%s,%.17g,%.17g\\n" %
row`` does, byte for byte, on its numpy fast path and on its fallback."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import srlab
from srlab.experiments import write_rows
from srlab.fmt17 import csv_lines


def _check(values, ks=None, modes=None):
    """Render ``values`` in the value column and, reversed, in the stderr
    column; compare each line with ``%``."""
    values = [float(v) for v in values]
    ks = list(range(len(values))) if ks is None else ks
    modes = ["sr3"] * len(values) if modes is None else modes
    rows = list(zip(ks, modes, values, values[::-1]))
    got = csv_lines(np.array(ks, np.int64), np.array(modes), np.array(values),
                    np.array(values[::-1]))
    want = "".join("%d,%s,%.17g,%.17g\n" % row for row in rows).encode()
    assert got.splitlines() == want.splitlines()
    assert got == want


def _ulps(x: float, k: int) -> list[float]:
    """x and its k neighbours on each side."""
    out = [x]
    for step in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, step)
            out.append(y)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_renders_as_percent_17g(values):
    _check(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_renders_as_percent_17g(words):
    _check(np.array(words, np.uint64).view(np.float64).tolist())


def _bits(word: int) -> float:
    return float(np.array([word], np.uint64).view(np.float64)[0])


# quiet and signalling NaNs of both signs, with different payloads
_NANS = [_bits(w) for w in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                            0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF)]
_EDGES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1022 - 5e-324,
          -1e-310, 2.0**-1022, 0.1, -0.1] + _NANS
_VALUES = st.one_of(st.floats(), st.sampled_from(_EDGES),
                    st.integers(0, 2**64 - 1).map(_bits))


# equal values are formatted once per run; 0.0 and -0.0, and NaNs that
# differ in sign or payload, are different bit patterns and stay apart
@example([(0.0, 3), (-0.0, 2), (0.0, 1), (-0.0, 1)])
@example([(n, 2) for n in _NANS] + [(_NANS[0], 1), (-0.0, 1)])
@example([(math.inf, 2), (-math.inf, 2), (5e-324, 3), (-5e-324, 1), (2.0**-1022, 2)])
@example([(0.1, 50)])  # one run fills the column
@example([(1.5, 1)])
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VALUES, st.integers(1, 12)), min_size=1, max_size=20))
def test_runs_of_equal_values_render_as_percent_17g(runs):
    _check([v for v, length in runs for _ in range(length)])


def test_runs_across_write_rows_chunks(tmp_path):
    # write_rows formats 4096 rows at a time: one run crosses a chunk
    # boundary, and another ends at one with -0.0 before 0.0
    values = [0.1] * 4000 + [1 / 3] * 200 + [-0.0] * 3992 + [0.0] * 50 + [math.nan] * 3
    ks = list(range(len(values)))
    modes = ["sr3"] * len(values)
    path = write_rows(tmp_path / "runs.csv", (np.array(ks), np.array(modes),
                                               np.array(values), np.array(values[::-1])))
    want = "n_or_k,mode,value,stderr\n" + "".join(
        "%d,%s,%.17g,%.17g\n" % row for row in zip(ks, modes, values, values[::-1]))
    assert path.read_bytes() == want.encode()


def test_powers_of_ten_and_their_neighbours():
    # the exponent changes at each power of ten, and 17 nines may round up
    # to it (the last double below 10**-14 prints as 1e-14)
    values = [v for k in range(-25, 19) for v in _ulps(float(f"1e{k}"), 3)]
    _check(values + [-v for v in values])


def test_ends_of_the_fast_range():
    values = _ulps(1e-20, 1) + _ulps(1e15, 1)
    _check(values + [-v for v in values])


def test_exact_ties_round_half_even():
    ties = [1234567890123456.75, 123456789012345.625, 3 * 2.0**-24]
    for v in ties:  # the 18th significant digit is an exact 5
        k = math.floor(math.log10(v))
        assert (Fraction(v) * Fraction(10) ** (16 - k)).denominator == 2
    _check(ties + [-v for v in ties] + [v for t in ties for v in _ulps(t, 2)])


# |v| * 10**(16 - K) lies within 4e-17 of a half-integer, but on one side of it
# (found by lattice reduction); the computed fraction is 1/2 itself
_NEAR_TIES = [
    8.839990188244671e-14, 6.83280278535067e-11, 1.3055059111721069e-20,
    2.3233180180504022e-11, 8.6130941296439e-19, 1.1959468262253353e-12,
    4.974148370910348e-09, 2.1758431852868448e-20, 9.162887696157053e-17,
    1.5396250336741378e-15,
]


def test_near_ties_are_rounded_to_the_right_side():
    for v in _NEAR_TIES:
        k = math.floor(math.log10(v))
        t = Fraction(v) * Fraction(10) ** (16 - k)
        assert 0 < abs(t - math.floor(t) - Fraction(1, 2)) < Fraction(4, 10**17)
    _check(_NEAR_TIES + [-v for v in _NEAR_TIES])


def test_zeros_negatives_and_specials():
    _check([0.0, -0.0, -1.5, -1e-300, -5e-324, 5e-324, 2.0**-1022, -2.0**-1022,
            math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308,
            -0.1, -123.456, 1e-5, -1e-5, 0.0001, 1e14, 99999999999999.98])


def test_random_values_across_the_fast_range():
    rng = np.random.default_rng(7)
    values = 10.0 ** rng.uniform(-22, 17, 5000) * rng.choice([-1.0, 1.0], 5000)
    _check(values.tolist())


def test_integer_and_mode_columns():
    ks = [0, 7, 9, 10, 99, 100, 9999, 10000, 123456789, 2**62, -5, 1 - 2**63, 2**63 - 1]
    modes = ["rn", "sr_ideal", "", "ah_sr10", "bc_srideal", "det", "fp64", "x", "sr3",
             "sr7", "rn", "rn", "a,b"]
    _check([0.5] * len(ks), ks, modes)


def test_non_ascii_mode_is_refused():
    with pytest.raises(ValueError, match="ASCII"):
        csv_lines(np.array([1]), np.array(["sré"]), np.array([0.5]), np.array([0.0]))


def test_import_srlab_leaves_the_formatter_unloaded():
    # the formatter and its tables load with the first CSV write; the modules
    # that `import srlab` loads build no numpy array at import
    code = ("import sys, numpy, srlab, srlab.sr; "
            "mods = {n: m for n, m in sys.modules.items() if n.startswith('srlab')}; "
            "print(sorted(mods)); "
            "print([n for n, m in mods.items() for v in vars(m).values() "
            "if isinstance(v, numpy.ndarray)])")
    env = {**os.environ, "PYTHONPATH": str(Path(srlab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [
        "['srlab', 'srlab.bounds', 'srlab.dyadic', 'srlab.experiments', 'srlab.kernels',"
        " 'srlab.rounding', 'srlab.sr']",
        "[]",
    ]
