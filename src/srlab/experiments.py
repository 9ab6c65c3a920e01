"""Monte Carlo experiment harness with CSV persistence.

Trials are paired: each (n, trial) input vector is drawn once and shared by
every rounding mode, so mode comparisons see identical data.  Each trial
owns its own random stream (stream_id = trial index) and results are
aggregated in trial order, so the CSV bytes depend only on the spec.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds
from .dyadic import exact_dot, exact_sum
from .kernels import gd_rosenbrock, inner_product, recursive_sum
from .rounding import FpFormat, round_nearest, round_nearest_array
from .sr import IDEAL, MODE_RN, MODE_SR, RngStream, SrConfig, rn_config, sr_config

_INV_2_53 = 2.0 ** -53

DEFAULT_STARTS = ((0.0, 0.0), (0.5, 0.5))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    The field defaults are the CLI defaults, and construction validates
    every field; a bad value raises ValueError.
    """

    kind: str  # sum | dot | rosenbrock | bounds-table
    p: int = 11
    r_list: tuple = (3, 6, 7, 8, 10)
    n_grid: tuple = (10, 100, 1000, 6000)
    iters: int = 5000
    step: float = 1e-3
    starts: tuple = DEFAULT_STARTS
    trials: int = 500
    seed: int = 1
    lam: float = 0.1
    input_file: str | None = None  # fixed input vector(s); default draws uniform(0,1)
    out_dir: str = "."

    def __post_init__(self):
        if self.kind not in ("sum", "dot", "rosenbrock", "bounds-table"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # SrConfig rejects p outside [2, 53] and r outside [1, 53 - p] or
        # IDEAL.  A bound table may ask about p = 53 with r = IDEAL, which
        # leaves no random bit; a rounding run cannot use it.
        fmt = FpFormat(self.p)
        mode = MODE_RN if self.kind == "bounds-table" else MODE_SR
        if not self.r_list:
            raise ValueError("r_list must not be empty")
        if len(set(self.r_list)) != len(self.r_list):
            raise ValueError(f"r_list repeats a value: {self.r_list}")
        for r in self.r_list:
            SrConfig(fmt, r, mode)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_grid:
            raise ValueError("n_grid must not be empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if self.n_grid[0] < 1:
            raise ValueError(f"n_grid sizes must be >= 1, got {self.n_grid[0]}")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if not self.step > 0:
            raise ValueError("t must be positive")
        for start in self.starts:
            if not all(map(math.isfinite, start)):
                raise ValueError(f"start point must be finite, got {start}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must be in (0, 1)")


class SummaryRow(NamedTuple):
    x: int
    mode: str
    value: float
    stderr: float


def _draw_uniform_p(rng: RngStream, n: int, fmt: FpFormat) -> list[float]:
    words = rng.bits_array(53, n)
    return round_nearest_array(words * _INV_2_53, fmt).tolist()


def _load_vector_file(path: str, fmt: FpFormat, columns: int) -> list[list[float]]:
    cols: list[list[float]] = [[] for _ in range(columns)]
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if len(parts) != columns:
                raise ValueError(f"expected {columns} column(s) in {path!r}")
            for c, token in enumerate(parts):
                cols[c].append(round_nearest(float(token), fmt))
    if not cols[0]:
        raise ValueError(f"no data in {path!r}")
    return cols


# kind -> (input columns, exact reference, kernel).  The lambdas look the
# reference and the kernel up at call time, so rebinding those module names
# (as the perfbench shims do) reaches every trial.
_TRIAL_KINDS = {
    "sum": (
        1,
        lambda a: exact_sum(a),
        lambda a, cfg, rng, exact: recursive_sum(a, cfg, rng, exact=exact, validate=False),
    ),
    "dot": (
        2,
        lambda a, b: exact_dot(a, b),
        lambda a, b, cfg, rng, exact: inner_product(
            a, b, cfg, rng, exact=exact, validate=False
        ),
    ),
}


def run_trials(spec: ExperimentSpec) -> dict[tuple[int, str], list[float]]:
    """Per-trial relative errors of the sum or dot kernel for every mode,
    keyed by ``(n, mode label)`` and listed in trial order.

    Trial t uses ``RngStream(spec.seed, t)`` in a fixed order: draw the
    input columns for each n, take the exact reference, then run every mode
    in turn on the same data.  A fixed input's reference is taken once; a
    fixed input whose exact value is zero has no relative error and raises
    ValueError.
    """
    columns, reference, kernel = _TRIAL_KINDS[spec.kind]
    modes = [rn_config(spec.p)] + [sr_config(spec.p, r) for r in spec.r_list]
    fmt = FpFormat(spec.p)
    fixed = fixed_exact = None
    if spec.input_file is not None:
        fixed = _load_vector_file(spec.input_file, fmt, columns)
        fixed_exact = reference(*fixed)
        if fixed_exact.sign == 0:
            raise ValueError(f"the exact {spec.kind} of {spec.input_file!r} is zero,"
                             " so its relative error is undefined")
    grid = [len(fixed[0])] if fixed else spec.n_grid
    errors = {(n, cfg.label): [] for n in grid for cfg in modes}
    for trial in range(spec.trials):
        rng = RngStream(spec.seed, trial)
        for n in grid:
            vecs = fixed or [_draw_uniform_p(rng, n, fmt) for _ in range(columns)]
            exact = fixed_exact if fixed else reference(*vecs)
            for cfg in modes:
                errors[n, cfg.label].append(kernel(*vecs, cfg, rng, exact).rel_error)
    return errors


def _summarize(values: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and standard error of each row of ``values`` over its last axis,
    the trials.

    One trial has zero spread, none where its value is NaN (the shared 0.0
    and nan constants add no float object per row).  With more, each row is
    first scaled in place by a power of two to a largest finite magnitude
    below 1, so that neither the mean's sum nor the std's squares overflow;
    scaling by a power of two is exact, so other results keep their bits.
    """
    trials = values.shape[-1]
    if trials == 1:
        means = values[..., 0].tolist()
        return means, [math.nan if v != v else 0.0 for v in means]
    mags = np.abs(values)
    mags[~np.isfinite(mags)] = 0.0
    shift = np.frexp(mags.max(axis=-1))[1]
    np.ldexp(values, -shift[..., None], out=values)
    means = np.ldexp(values.mean(axis=-1), shift).tolist()
    stderrs = np.ldexp(values.std(axis=-1, ddof=1) / math.sqrt(trials), shift).tolist()
    return means, stderrs


def aggregate_trials(errors: dict[tuple[int, str], list[float]]) -> list[SummaryRow]:
    """Mean and standard error per ``(n, mode)`` key of ``run_trials``, in key order."""
    means, stderrs = _summarize(np.array(list(errors.values())))
    return [SummaryRow(n, mode, m, se) for (n, mode), m, se in zip(errors, means, stderrs)]


def run_sum_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Mean relative error per (n, mode) of the recursive sum (kind ``sum``)
    or of the inner product (kind ``dot``)."""
    return aggregate_trials(run_trials(spec))


def run_bounds_table(spec: ExperimentSpec) -> list[SummaryRow]:
    """Deterministic and probabilistic bound values on the n grid (kappa = 1)."""
    rows = []
    for n in spec.n_grid:
        rows.append(SummaryRow(n, "det", bounds.det_bound_sum(n, spec.p), 0.0))
        for r in spec.r_list:
            q = bounds.BoundQuery(n=n, p=spec.p, r=r, lam=spec.lam)
            tag = "ideal" if r == IDEAL else str(r)
            rows.append(SummaryRow(n, f"ah_sr{tag}", bounds.ah_bound_sum(q), 0.0))
            rows.append(SummaryRow(n, f"bc_sr{tag}", bounds.bc_bound_sum(q), 0.0))
    return rows


def run_rosenbrock(spec: ExperimentSpec, start: tuple[float, float]) -> list[SummaryRow]:
    """Loss-per-iteration table: binary64 and precision-p RN baselines once,
    stochastic modes averaged over spec.trials runs.

    Iterations past a diverged trajectory are reported as NaN, with a NaN
    stderr.
    """
    rows: list[SummaryRow] = []
    npoints = spec.iters + 1
    modes = [(rn_config(53), 1), (rn_config(spec.p), 1)]
    modes += [(sr_config(spec.p, r), spec.trials) for r in spec.r_list]
    for cfg, trials in modes:
        losses = np.full((trials, npoints), math.nan)
        for trial, row in enumerate(losses):
            series = gd_rosenbrock(start, spec.step, spec.iters, cfg,
                                   RngStream(spec.seed, trial)).loss_series
            row[: len(series)] = series
            # a trajectory or its losses kept alive while the next one runs
            # raises the peak memory and slows the descent
            del series
        means, stderrs = _summarize(losses.T)
        rows.extend(map(SummaryRow, range(npoints), repeat(cfg.label), means, stderrs))
    return rows


def estimate_coverage(errors, bound: float) -> float:
    """Fraction of |error| values at or below the bound."""
    arr = np.abs(np.asarray(errors, dtype=float))
    if arr.size == 0:
        raise ValueError("empty error vector")
    return float(np.mean(arr <= bound))


def _r_tag(r_list) -> str:
    return "-".join("ideal" if r == IDEAL else str(r) for r in r_list)


def csv_name(spec: ExperimentSpec, start: tuple[float, float] | None = None) -> str:
    name = f"{spec.kind}_p{spec.p}_r{_r_tag(spec.r_list)}"
    if start is not None:
        name += f"_start{start[0]:g}-{start[1]:g}"
    return name + ".csv"


def write_rows(path: str | Path, rows: list[SummaryRow]) -> Path:
    """Write summary rows as CSV (17 significant digits), atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n_or_k,mode,value,stderr\n")
            # %.17g renders every float as format(v, ".17g") does
            fh.writelines(map("%d,%s,%.17g,%.17g\n".__mod__, rows))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
