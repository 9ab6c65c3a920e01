"""Timing and counting shims around srlab's module boundaries.

A traced run replaces the names through which one srlab module calls into
another (for example ``srlab.kernels.sr_round``) with shims that record a
span per call and the counters the closed-form checks need.  Nothing in
srlab itself changes.  Span times exclude the shims' own bookkeeping from
the caller's self time, but every shimmed call still pays a few hundred
nanoseconds; ``trace.overhead_frac`` reports the total cost.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter_ns


def on_grid(x: float, p: int) -> bool:
    """True iff finite x is zero or has at most p significand bits."""
    if x == 0.0:
        return True
    m, _ = math.frexp(x)
    return int(abs(m) * 2.0**53) & ((1 << (53 - p)) - 1) == 0


class Tracer:
    """Spans and counters of one batch; ``reset`` starts the next batch."""

    def __init__(self):
        self._stack: list[list[int]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)       # inclusive, per span name
        self.self_ns: dict[str, int] = defaultdict(int)  # minus child spans
        self.calls: dict[str, int] = defaultdict(int)
        self.words = 0          # RNG words drawn by any caller
        self.sr_words = 0       # words drawn inside sr_round / sr_sample
        self.sr_calls = 0       # sr_round calls plus sr_sample calls
        self.short_circuits = 0  # SR calls that drew no word
        self.roundings = 0      # roundings scheduled by a kernel
        self.draws = 0          # sr_sample outcomes requested
        self.csv_bytes = 0
        self.diverged = 0
        self.violations: list[str] = []

    def wrap(self, name: str, fn, post=None):
        """Shim timing ``fn`` as span ``name``; ``post(args, result, words0,
        roundings0)`` runs after a successful call, outside every span."""
        stack = self._stack

        def shim(*args, **kwargs):
            w0, s0 = self.words, self.roundings
            frame = [0]
            stack.append(frame)
            try:
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                dt = perf_counter_ns() - t0
            finally:
                stack.pop()
            self.ns[name] += dt
            self.self_ns[name] += dt - frame[0]
            self.calls[name] += 1
            if post is not None:
                post(args, result, w0, s0)
            if stack:
                stack[-1][0] += perf_counter_ns() - t0
            return result

        return shim

    def patch(self, obj, attr: str, name: str, post=None) -> None:
        fn = getattr(obj, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        setattr(obj, attr, self.wrap(name, fn, post))

    # ------------------------------------------------------------ post hooks

    def _violation(self, text: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(text)
        else:
            self.violations[-1] = f"... and more ({text})"

    def _after_sr_round(self, args, result, w0, s0) -> None:
        x, cfg = args[0], args[1]
        used = self.words - w0
        self.sr_calls += 1
        self.sr_words += used
        self.roundings += 1
        if used == 0:
            self.short_circuits += 1
        expected = 0 if on_grid(x, cfg.p) else 1
        if used != expected:
            self._violation(f"sr_round({x!r}, p={cfg.p}) drew {used} words, expected {expected}")

    def _after_sr_sample(self, args, result, w0, s0) -> None:
        x, cfg, size = args[0], args[1], args[3]
        used = self.words - w0
        self.sr_calls += 1
        self.sr_words += used
        self.draws += size
        if used == 0:
            self.short_circuits += 1
        expected = 0 if on_grid(x, cfg.p) else size
        if used != expected:
            self._violation(f"sr_sample({x!r}, p={cfg.p}) drew {used} words, expected {expected}")

    def _after_kernel_rn(self, args, result, w0, s0) -> None:
        # frame 0 is this hook, 1 the shim, 2 the kernel code that called RN
        if sys._getframe(2).f_code.co_name == "_round_step":
            self.roundings += 1

    def _after_sum(self, args, result, w0, s0) -> None:
        a, cfg = args[0], args[1]
        done = self.roundings - s0
        if done != len(a) - 1 or result.op_count != len(a) - 1:
            self._violation(f"sum of n={len(a)} did {done} roundings, expected {len(a) - 1}")
        if cfg.mode == "rn" and self.words != w0:
            self._violation(f"RN sum drew {self.words - w0} words")

    def _after_gd(self, args, result, w0, s0) -> None:
        cfg = args[3]
        done = self.roundings - s0
        completed = len(result.loss_series) - 1
        extra = done - 2 * completed
        # a diverging iteration may round once or twice before it is cut
        if not (extra == 0 or (result.diverged and 0 < extra <= 2)):
            self._violation(f"gd {cfg.label} did {done} roundings in {completed} iterations")
        if cfg.mode == "rn" and self.words != w0:
            self._violation(f"RN gd drew {self.words - w0} words")
        self.diverged += result.diverged

    def _after_write(self, args, result, w0, s0) -> None:
        self.csv_bytes += result.stat().st_size

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Patch every module boundary the three workloads cross."""
        from srlab import cli, dyadic, experiments, kernels, sr

        tracer = self
        next_bits, bits_array = sr.RngStream.next_bits, sr.RngStream.bits_array

        def counted_next_bits(rng, k):
            tracer.words += 1
            return next_bits(rng, k)

        def counted_bits_array(rng, k, size):
            tracer.words += size
            return bits_array(rng, k, size)

        sr.RngStream.next_bits = counted_next_bits
        sr.RngStream.bits_array = counted_bits_array

        self.patch(cli, "main", "cli.main")
        self.patch(experiments, "run_sum_experiment", "experiments.runner")
        self.patch(experiments, "run_rosenbrock", "experiments.runner")
        self.patch(experiments, "_draw_uniform_p", "experiments.input_draw")
        self.patch(experiments, "write_rows", "experiments.csv_write", self._after_write)
        self.patch(experiments, "exact_sum", "dyadic.exact_sum")
        self.patch(experiments, "round_nearest", "rounding.round_nearest")
        self.patch(experiments, "recursive_sum", "kernels.recursive_sum", self._after_sum)
        self.patch(experiments, "gd_rosenbrock", "kernels.gd_rosenbrock", self._after_gd)
        self.patch(kernels, "sr_round", "sr.sr_round", self._after_sr_round)
        self.patch(kernels, "round_nearest", "rounding.round_nearest", self._after_kernel_rn)
        self.patch(kernels, "rel_error", "dyadic.rel_error")
        self.patch(sr, "sr_sample", "sr.sr_sample", self._after_sr_sample)
        self.patch(dyadic, "dy_q", "dyadic.dy_q")

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the batch since the last ``reset``."""
        ns, self_ns, calls = self.ns, self.self_ns, self.calls
        kernel_spans = ("kernels.recursive_sum", "kernels.gd_rosenbrock")
        kernel_incl = sum(ns[k] for k in kernel_spans) - ns["dyadic.rel_error"]

        def per(total, count):
            return total / count if count else 0.0

        return {
            "sr.sr_round.calls": calls["sr.sr_round"],
            "sr.sr_round.ns_per_call": per(ns["sr.sr_round"], calls["sr.sr_round"]),
            "kernels.roundings": self.roundings,
            "kernels.self_s": sum(self_ns[k] for k in kernel_spans) / 1e9,
            "kernels.ns_per_rounding": per(kernel_incl, self.roundings),
            "sr.rng.words": self.sr_words,
            "sr.rng.words_per_rounding": per(
                self.sr_words, calls["sr.sr_round"] + self.draws
            ),
            "sr.short_circuit_frac": per(self.short_circuits, self.sr_calls),
            "sr.sr_sample.ns_per_draw": per(ns["sr.sr_sample"], self.draws),
            "rounding.round_nearest.calls": calls["rounding.round_nearest"],
            "rounding.round_nearest.ns_per_call": per(
                ns["rounding.round_nearest"], calls["rounding.round_nearest"]
            ),
            "dyadic.exact_ref_s": ns["dyadic.exact_sum"] / 1e9,
            "dyadic.rel_error_s": ns["dyadic.rel_error"] / 1e9,
            "dyadic.dy_q_s": ns["dyadic.dy_q"] / 1e9,
            "experiments.input_draw_s": ns["experiments.input_draw"] / 1e9,
            "experiments.aggregate_s": self_ns["experiments.runner"] / 1e9,
            "experiments.csv_write_s": ns["experiments.csv_write"] / 1e9,
            "experiments.csv_bytes": self.csv_bytes,
            "experiments.diverged": self.diverged,
            "cli.self_s": self_ns["cli.main"] / 1e9,
        }
