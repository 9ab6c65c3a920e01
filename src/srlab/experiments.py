"""Monte Carlo experiment harness with CSV persistence.

Trials are paired: each (n, trial) input vector is drawn once and shared by
every rounding mode, so mode comparisons see identical data.  Each trial
owns its own random stream (stream_id = trial index) and results are
aggregated in trial order, so the CSV bytes depend only on the spec.

Every runner returns a table, four equal-length numpy columns (n_or_k int64,
mode str, value float64, stderr float64), which ``write_rows`` writes as CSV.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds
from .dyadic import exact_dot, exact_sum
from .kernels import gd_rosenbrock, inner_product, recursive_sum
from .rounding import (
    FpFormat, SubstrateRangeError, check_int, round_nearest, round_nearest_array,
)
from .sr import (
    KEY_MAX, MODE_RN, MODE_SR, RngStream, SrConfig, rn_config, sr_config,
)

_INV_2_53 = 2.0 ** -53

DEFAULT_STARTS = ((0.0, 0.0), (0.5, 0.5))


def _doubling_grid(n_max) -> tuple:
    """The n grid 10, 20, 40, ... up to n_max, an integer or its decimal text."""
    n_max = check_int("n_max", int(n_max) if isinstance(n_max, str) else n_max, 1)
    grid, n = [], 10
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(n_max)
    return tuple(grid)


_GRIDS = {"sum": (10, 100, 1000, 6000), "bounds-table": _doubling_grid(6000)}
_GRIDS["dot"] = _GRIDS["rosenbrock"] = _GRIDS["sum"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    The field defaults are the CLI defaults, and construction validates
    every field; a bad value raises ValueError.
    """

    kind: str  # sum | dot | rosenbrock | bounds-table
    p: int = 11
    r_list: tuple = (3, 6, 7, 8, 10)
    n_grid: tuple | None = None  # None: the kind's grid, or the input file's length
    iters: int = 5000
    step: float = 1e-3
    starts: tuple = DEFAULT_STARTS
    trials: int = 500
    seed: int = 1
    lam: float = 0.1
    input_file: str | None = None  # fixed input vector(s); default draws uniform(0,1)
    out_dir: str = "."

    def __post_init__(self):
        # tuples, so that a spec read back from JSON lists equals the original
        object.__setattr__(self, "r_list", tuple(self.r_list))
        object.__setattr__(self, "starts", tuple(map(tuple, self.starts)))
        if self.kind not in _GRIDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.input_file is None:
            sizes = tuple(check_int("n_grid size", n, 1)
                          for n in (_GRIDS[self.kind] if self.n_grid is None else self.n_grid))
            object.__setattr__(self, "n_grid", sizes)
            if not sizes:
                raise ValueError("n_grid must not be empty")
            if list(sizes) != sorted(set(sizes)):
                raise ValueError("n_grid must be strictly increasing")
        elif self.kind not in ("sum", "dot"):
            raise ValueError(f"input_file is for sum and dot, not {self.kind}")
        elif self.n_grid is not None:
            raise ValueError("--input-file fixes n to the file's length: give no "
                             "--n-grid, --n-max, n_grid or n_max with it")
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
        check_int("trials", self.trials, 1)
        check_int("iters", self.iters, 0)
        if not 0.0 < self.step < math.inf:  # nan fails too
            raise ValueError(f"t must be positive and finite, got {self.step!r}")
        if not self.starts:
            raise ValueError("starts must not be empty")
        for start in self.starts:
            if len(start) != 2 or not all(map(math.isfinite, start)):
                raise ValueError(f"start point must be two finite coordinates, got {start}")
            try:  # the descent rounds the start to precision p first
                for c in start:
                    round_nearest(c, fmt)
            except SubstrateRangeError as exc:
                raise ValueError(f"start point {start} does not round to precision "
                                 f"{self.p}: {exc}") from None
        # each start writes its own CSV; two starts with one name would share it
        if len({csv_name(self, start) for start in self.starts}) != len(self.starts):
            raise ValueError(f"two start points share one CSV name: {self.starts}")
        bounds.BoundQuery(1, self.p, lam=self.lam)  # checks lam
        check_int("seed", self.seed, 0, KEY_MAX)


def _draw_uniform_p(rng: RngStream, n: int, fmt: FpFormat) -> np.ndarray:
    return round_nearest_array(rng.bits_array(53, n) * _INV_2_53, fmt)


def _load_vector_file(path: str, fmt: FpFormat, columns: int) -> list[list[float]]:
    cols: list[list[float]] = [[] for _ in range(columns)]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if len(parts) != columns:
                raise ValueError(f"expected {columns} column(s) in {path!r}")
            for c, token in enumerate(parts):
                try:
                    cols[c].append(round_nearest(float(token), fmt))
                except (ValueError, SubstrateRangeError) as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from None
    if not cols[0]:
        raise ValueError(f"no data in {path!r}")
    return cols


def run_trials(spec: ExperimentSpec) -> dict[tuple[int, str], list[float]]:
    """Per-trial relative errors of the sum or dot kernel for every mode,
    keyed by ``(n, mode label)`` and listed in trial order.

    Trial t uses ``RngStream(spec.seed, t)`` in a fixed order: draw the
    input columns for each n, take the exact reference, then run every mode
    in turn on the same data.  A fixed input's reference is taken once; a
    fixed input whose exact value is zero has no relative error and raises
    ValueError.
    """
    columns, reference, kernel = {
        "sum": (1, exact_sum, recursive_sum), "dot": (2, exact_dot, inner_product)
    }[spec.kind]
    modes = [rn_config(spec.p)] + [sr_config(spec.p, r) for r in spec.r_list]
    fmt = FpFormat(spec.p)
    fixed = fixed_exact = None
    if spec.input_file is not None:
        fixed = _load_vector_file(spec.input_file, fmt, columns)
        fixed_exact = reference(*fixed)
        if fixed_exact == 0:
            raise ValueError(f"the exact {spec.kind} of {spec.input_file!r} is zero,"
                             " so its relative error is undefined")
    grid = [len(fixed[0])] if fixed else spec.n_grid
    errors = {(n, cfg.label): [] for n in grid for cfg in modes}
    for trial in range(spec.trials):
        rng = RngStream(spec.seed, trial)
        for n in grid:
            # the reference reads float64 arrays as they are; the kernels step
            # fastest through Python floats
            arrays = fixed or [_draw_uniform_p(rng, n, fmt) for _ in range(columns)]
            exact = fixed_exact if fixed else reference(*arrays)
            vecs = fixed or [a.tolist() for a in arrays]
            for cfg in modes:
                result = kernel(*vecs, cfg, rng, exact=exact, validate=False)
                errors[n, cfg.label].append(result.rel_error)
    return errors


def _summarize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of ``values`` over its last axis,
    the trials.

    One trial has zero spread, none where its value is NaN.  With more, each
    row is first scaled in place by a power of two to a largest finite
    magnitude below 1, so that neither the mean's sum nor the std's squares
    overflow; scaling by a power of two is exact, so other results keep their bits.
    """
    trials = values.shape[-1]
    if trials == 1:
        return values[..., 0], np.where(np.isnan(values[..., 0]), math.nan, 0.0)
    mags = np.abs(values)
    mags[~np.isfinite(mags)] = 0.0
    shift = np.frexp(mags.max(axis=-1))[1]
    np.ldexp(values, -shift[..., None], out=values)
    means = np.ldexp(values.mean(axis=-1), shift)
    stderrs = np.ldexp(values.std(axis=-1, ddof=1) / math.sqrt(trials), shift)
    return means, stderrs


def aggregate_trials(errors: dict[tuple[int, str], list[float]]) -> tuple:
    """Table of the mean and standard error per key of ``run_trials``, in key order."""
    n, mode = zip(*errors)
    return (np.array(n, np.int64), np.array(mode),
            *_summarize(np.array(list(errors.values()))))


def run_sum_experiment(spec: ExperimentSpec) -> tuple:
    """Mean relative error per (n, mode) of the recursive sum (kind ``sum``)
    or of the inner product (kind ``dot``)."""
    return aggregate_trials(run_trials(spec))


def run_bounds_table(spec: ExperimentSpec) -> tuple:
    """Table of the deterministic and probabilistic bounds on the n grid (kappa = 1)."""
    rows = []
    for n in spec.n_grid:
        rows.append((n, "det", bounds.det_bound_sum(n, spec.p)))
        for r in spec.r_list:
            q = bounds.BoundQuery(n=n, p=spec.p, r=r, lam=spec.lam)
            rows.append((n, f"ah_sr{r}", bounds.ah_bound_sum(q)))
            rows.append((n, f"bc_sr{r}", bounds.bc_bound_sum(q)))
    n, mode, value = zip(*rows)
    return np.array(n, np.int64), np.array(mode), np.array(value), np.zeros(len(value))


def run_rosenbrock(spec: ExperimentSpec, start: tuple[float, float]) -> tuple:
    """Loss-per-iteration table: binary64 and precision-p RN baselines once,
    stochastic modes averaged over spec.trials runs.

    Iterations past a diverged trajectory are reported as NaN, with a NaN
    stderr.
    """
    tables = []
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
        tables.append((np.arange(npoints, dtype=np.int64), np.full(npoints, cfg.label),
                       *_summarize(losses.T)))
    return tuple(map(np.concatenate, zip(*tables)))


def estimate_coverage(errors, bound: float) -> float:
    """Fraction of |error| values at or below the bound."""
    arr = np.abs(np.asarray(errors, dtype=float))
    if arr.size == 0:
        raise ValueError("empty error vector")
    return float(np.mean(arr <= bound))


def csv_name(spec: ExperimentSpec, start: tuple[float, float] | None = None) -> str:
    name = f"{spec.kind}_p{spec.p}_r{'-'.join(map(str, spec.r_list))}"
    if start is not None:
        name += f"_start{start[0]:g}-{start[1]:g}"
    return name + ".csv"


def write_rows(path: str | Path, table) -> Path:
    """Write a runner's table as CSV (17 significant digits), atomically."""
    from .fmt17 import csv_lines  # loaded by the first write, not by `import srlab`

    if len({len(column) for column in table}) != 1:
        raise ValueError("the table's four columns must have one length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # open() creates the file with the mode the umask allows; mkstemp's is 0600.
    # A live process owns its pid, so a file of this name is a killed run's.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.unlink(missing_ok=True)
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(b"n_or_k,mode,value,stderr\n")
            # bounded chunks keep the formatter's byte matrices small
            for i in range(0, len(table[2]), 4096):
                fh.write(csv_lines(*(column[i:i + 4096] for column in table)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
