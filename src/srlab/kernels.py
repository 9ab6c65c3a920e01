"""Reference algorithms with fixed rounding schedules.

Recursive summation rounds each partial sum after the first once (n-1
roundings); the inner product rounds every product and every running
addition once (2n-1 roundings, the first product being the first).  Both
carry an exact dyadic reference alongside the low-precision value.

Gradient descent on the Rosenbrock function keeps its iterates at
precision p: gradients are evaluated in binary64, rounded to nearest at
precision p, and the parameter update x - t*g is rounded once per
coordinate with the configured mode.  A p = 53 round-to-nearest
configuration degenerates to the plain binary64 baseline.  The descent
loop evaluates each iterate's loss and gradient once, from one shared
``d = x2 - x1*x1`` in the operation order of ``rosenbrock_f`` and
``rosenbrock_grad``: a step that leaves the iterate in place rounds the
kept update ``x - t*g`` again.  Gradients go through ``round_nearest``,
and the iterates are two float lists, with no per-point tuple for the
garbage collector to track.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import exact_dot, exact_sum, rel_error
from .rounding import SubstrateRangeError, check_int, is_representable, round_nearest
from .sr import MODE_SR, RngStream, SrConfig, sr_round


@dataclass
class KernelResult:
    value: float
    exact: Fraction
    rel_error: float
    op_count: int


@dataclass
class GdTrajectory:
    """The iterates of one descent as two coordinate lists, one loss each."""

    x1: list[float]
    x2: list[float]
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


def _stepper(cfg: SrConfig):
    """The per-step rounding ``f(c, cfg, rng)`` of one kernel run.

    ``sr_round`` is read from the module globals on each call here, and
    ``_round_step`` reads ``round_nearest`` on each step, so rebinding
    either name reaches the kernels.
    """
    return sr_round if cfg.mode == MODE_SR else _round_step


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
    exact: Fraction | None = None,
    validate: bool = True,
) -> KernelResult:
    """Left-to-right summation, one rounding per partial sum after the first."""
    if len(a) == 0:
        raise ValueError("empty input")
    if validate:
        _check_inputs("a", a, cfg)
    step = _stepper(cfg)
    it = iter(a)
    s = next(it)
    try:
        for x in it:
            s = step(s + x, cfg, rng)
    except (SubstrateRangeError, ValueError) as exc:
        raise _at_step(exc, len(a) - 1 - operator.length_hint(it)) from exc
    if exact is None:
        exact = exact_sum(a)
    return KernelResult(s, exact, rel_error(s, exact), len(a) - 1)


def inner_product(
    a,
    b,
    cfg: SrConfig,
    rng: RngStream,
    exact: Fraction | None = None,
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
    step = _stepper(cfg)
    k = 0
    try:
        s = step(a[0] * b[0], cfg, rng)
        for k in range(1, len(a)):
            s = step(s + step(a[k] * b[k], cfg, rng), cfg, rng)
    except (SubstrateRangeError, ValueError) as exc:
        raise _at_step(exc, k) from exc
    if exact is None:
        exact = exact_dot(a, b)
    return KernelResult(s, exact, rel_error(s, exact), 2 * len(a) - 1)


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
    leaves no iterate and no loss.  d, the loss, g and y = x - t*g depend
    only on the iterate's value, so a step to an equal (==) iterate keeps
    them and rounds y again.  Signed zeros agree: x1 = +-0 gives g1 = -2
    and y1 = 2t; x2 = +-0 gives y2 = -t*g2, or +0 when that is a zero.
    The new floats are stored, so every list matches the full loop.
    """
    iters = check_int("iters", iters, 0)
    if not 0.0 < t < math.inf:  # nan fails too
        raise ValueError(f"step size must be positive and finite, got {t!r}")
    fmt = cfg.fmt
    step = _stepper(cfg)
    x1 = round_nearest(x0[0], fmt)
    x2 = round_nearest(x0[1], fmt)
    xs1, xs2, losses = [], [], []
    diverged = False
    try:
        # rosenbrock_f and rosenbrock_grad, sharing d: ** raises
        # OverflowError, * gives inf; either is a divergence, at the start
        # point as at any later iterate
        d = x2 - x1 * x1
        loss = (1.0 - x1) ** 2 + 100.0 * d * d
        y1 = None  # the kept update x - t*g, dropped when the iterate moves
        for _ in range(iters):
            if not math.isfinite(loss):
                break
            xs1.append(x1)
            xs2.append(x2)
            losses.append(loss)
            if y1 is None:
                # a non-finite gradient raises ValueError: a divergence
                y1 = x1 - t * round_nearest(-2.0 * (1.0 - x1) - 400.0 * x1 * d, fmt)
                y2 = x2 - t * round_nearest(200.0 * d, fmt)
            n1 = step(y1, cfg, rng)
            n2 = step(y2, cfg, rng)
            if n1 != x1 or n2 != x2:
                d = n2 - n1 * n1
                loss = (1.0 - n1) ** 2 + 100.0 * d * d
                y1 = None
            x1, x2 = n1, n2
        if math.isfinite(loss):
            xs1.append(x1)
            xs2.append(x2)
            losses.append(loss)
        else:
            diverged = True
    except (SubstrateRangeError, ValueError, OverflowError):
        diverged = True
    return GdTrajectory(xs1, xs2, losses, cfg.label, diverged)
