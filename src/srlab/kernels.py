"""Reference algorithms with fixed rounding schedules.

Recursive summation rounds each partial sum after the first once (n-1
roundings); the inner product rounds every product and every running
addition once (2n-1 roundings, the first product being the first).  Both
carry an exact dyadic reference alongside the low-precision value.

Gradient descent on the Rosenbrock function keeps its iterates at
precision p: gradients are evaluated in binary64, rounded to nearest at
precision p, and the parameter update x - t*g is rounded once per
coordinate with the configured mode.  A p = 53 round-to-nearest
configuration degenerates to the plain binary64 baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import DyadicValue, exact_dot, exact_sum, rel_error
from .rounding import SubstrateRangeError, is_representable, round_nearest
from .sr import MODE_SR, RngStream, RoundingRecord, SrConfig, sr_round, sr_round_traced


@dataclass
class KernelResult:
    value: float
    exact: DyadicValue
    rel_error: float
    op_count: int
    records: list[RoundingRecord] | None = None


@dataclass
class GdTrajectory:
    iterates: list[tuple[float, float]]
    loss_series: list[float]
    mode: str
    diverged: bool = False


def _check_inputs(label: str, values, cfg: SrConfig) -> None:
    for i, v in enumerate(values):
        if not is_representable(v, cfg.fmt):
            raise ValueError(
                f"{label}[{i}] = {v!r} is not representable at precision {cfg.p}"
            )


def _round_step(c: float, cfg: SrConfig, rng: RngStream) -> float:
    return round_nearest(c, cfg.fmt)


def _stepper(cfg: SrConfig, records: list[RoundingRecord] | None):
    """The per-step rounding ``f(c, cfg, rng)`` of one kernel run.

    ``sr_round`` is read from the module globals on each call here, and
    ``_round_step`` reads ``round_nearest`` on each step, so rebinding
    either name reaches the kernels.
    """
    if cfg.mode != MODE_SR:
        return _round_step
    if records is None:
        return sr_round

    def traced(c: float, cfg: SrConfig, rng: RngStream) -> float:
        y, rec = sr_round_traced(c, cfg, rng)
        records.append(rec)
        return y

    return traced


def _at_step(exc: Exception, index: int) -> SubstrateRangeError:
    # the roundings raise ValueError for a non-finite input
    if isinstance(exc, SubstrateRangeError):
        return SubstrateRangeError(f"{exc} (at step index {index})")
    return SubstrateRangeError(
        f"partial result left the substrate range (at step index {index})"
    )


def recursive_sum(
    a,
    cfg: SrConfig,
    rng: RngStream,
    trace: bool = False,
    exact: DyadicValue | None = None,
    validate: bool = True,
) -> KernelResult:
    """Left-to-right summation, one rounding per partial sum after the first."""
    if len(a) == 0:
        raise ValueError("empty input")
    if validate:
        _check_inputs("a", a, cfg)
    records: list[RoundingRecord] | None = [] if trace else None
    step = _stepper(cfg, records)
    s = a[0]
    k = 0
    try:
        for k in range(1, len(a)):
            s = step(s + a[k], cfg, rng)
    except (SubstrateRangeError, ValueError) as exc:
        raise _at_step(exc, k) from exc
    if exact is None:
        exact = exact_sum(a)
    return KernelResult(s, exact, rel_error(s, exact), len(a) - 1, records)


def inner_product(
    a,
    b,
    cfg: SrConfig,
    rng: RngStream,
    trace: bool = False,
    exact: DyadicValue | None = None,
    validate: bool = True,
) -> KernelResult:
    """Product-and-accumulate: every product and every addition rounded once."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) == 0:
        raise ValueError("empty input")
    if validate:
        _check_inputs("a", a, cfg)
        _check_inputs("b", b, cfg)
    records: list[RoundingRecord] | None = [] if trace else None
    step = _stepper(cfg, records)
    k = 0
    try:
        s = step(a[0] * b[0], cfg, rng)
        for k in range(1, len(a)):
            s = step(s + step(a[k] * b[k], cfg, rng), cfg, rng)
    except (SubstrateRangeError, ValueError) as exc:
        raise _at_step(exc, k) from exc
    if exact is None:
        exact = exact_dot(a, b)
    return KernelResult(s, exact, rel_error(s, exact), 2 * len(a) - 1, records)


def rosenbrock_f(x: tuple[float, float]) -> float:
    """(1 - x1)**2 + 100*(x2 - x1**2)**2, minimum 0 at (1, 1)."""
    x1, x2 = x
    d = x2 - x1 * x1
    return (1.0 - x1) ** 2 + 100.0 * d * d


def rosenbrock_grad(x: tuple[float, float]) -> tuple[float, float]:
    x1, x2 = x
    d = x2 - x1 * x1
    return -2.0 * (1.0 - x1) - 400.0 * x1 * d, 200.0 * d


def gd_rosenbrock(
    x0: tuple[float, float],
    t: float,
    iters: int,
    cfg: SrConfig,
    rng: RngStream,
) -> GdTrajectory:
    """Gradient descent x <- x - t * grad(x) with per-coordinate rounding.

    The step product t*g stays in binary64.  When the gradient, an iterate
    or the loss overflows, the trajectory is cut short and flagged as
    diverged; a start whose loss overflows, to an OverflowError or to inf,
    leaves no iterate and no loss.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if t <= 0.0:
        raise ValueError("step size must be positive")
    fmt = cfg.fmt
    step = _stepper(cfg, None)
    x1 = round_nearest(x0[0], fmt)
    x2 = round_nearest(x0[1], fmt)
    iterates: list[tuple[float, float]] = []
    losses: list[float] = []
    diverged = False
    try:
        # ** raises OverflowError, * gives inf; either is a divergence,
        # at the start point as at any later iterate
        loss = rosenbrock_f((x1, x2))
        for _ in range(iters):
            if not math.isfinite(loss):
                break
            iterates.append((x1, x2))
            losses.append(loss)
            # round_nearest raises ValueError on a non-finite gradient
            g1, g2 = rosenbrock_grad((x1, x2))
            g1 = round_nearest(g1, fmt)
            g2 = round_nearest(g2, fmt)
            x1 = step(x1 - t * g1, cfg, rng)
            x2 = step(x2 - t * g2, cfg, rng)
            loss = rosenbrock_f((x1, x2))
        if math.isfinite(loss):
            iterates.append((x1, x2))
            losses.append(loss)
        else:
            diverged = True
    except (SubstrateRangeError, ValueError, OverflowError):
        diverged = True
    return GdTrajectory(iterates, losses, cfg.label, diverged)
