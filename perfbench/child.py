"""One srlab benchmark workload, run in a fresh single-threaded interpreter.

``run.py`` starts this file as ``python3 perfbench/child.py '<job json>'``;
the job names the checkout root, workload, seed, phase, seconds, trace
flag, output directory and the parent's monotonic clock at spawn time.
The last line on stdout is a JSON report.

Phases:

* ``setup``: stop at the first trial (the first ``RngStream`` built) and
  report the time since spawn: interpreter start, imports, argument
  parsing and building the spec and configs.
* ``run``: one untimed warm-up batch, then timed batches until ``seconds``
  have passed.  Every batch is checked; with ``trace`` the shims of
  ``shims.py`` record per-layer spans and counters for each batch.

srlab is only driven from outside, through ``srlab.cli.main`` and the
public functions of ``srlab.sr`` and ``srlab.dyadic``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def _python_probe() -> float:
    """Seconds for a fixed pure-Python loop of float splits and integer shifts."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        m, e = math.frexp(i + 0.5)
        acc += int(m * 9007199254740992.0) >> (e & 7)
    return time.perf_counter() - t0


def _numpy_probe() -> float:
    """Seconds for fixed Philox draws and carry arithmetic on uint64 arrays."""
    import numpy as np

    t0 = time.perf_counter()
    for i in range(4):
        words = np.random.Philox(i).random_raw(100_000)
        words &= np.uint64(255)
        ups = (words + np.uint64(77)) >> np.uint64(8)
        np.where(ups.astype(bool), 1.5, 1.25)
    return time.perf_counter() - t0


# probe -> its duration on the reference machine (the shared 2-vCPU Xeon VM
# where the first figures were taken); speed = reference / measured
PROBES = {"python": (_python_probe, 0.010), "numpy": (_numpy_probe, 0.008)}


def machine_speed(probe: str) -> float:
    """Current machine speed on ``probe`` relative to the reference machine."""
    fn, reference_s = PROBES[probe]
    return reference_s / fn()


class _FirstTrial(Exception):
    """Raised by the set-up probe when the first trial starts."""


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read_csv(path: Path) -> list[tuple[int, str, float, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "n_or_k,mode,value,stderr":
        raise ValueError(f"{path.name}: unexpected header")
    rows = []
    for line in lines[1:]:
        x, mode, value, stderr = line.split(",")
        rows.append((int(x), mode, float(value), float(stderr)))
    return rows


class _CliWorkload:
    """A workload that runs one ``srlab`` subcommand per batch."""

    records: int
    probe = "python"  # srlab's scalar paths are interpreter-bound

    def __init__(self, seed: int, out_dir: str, traced: bool = False):
        self.out_dir = Path(out_dir)
        self.argv = self.flags(seed) + ["--out-dir", out_dir]
        self.traced = traced
        self.inner_speeds: list[float] = []
        self._inner_probe_s = 0.0

    def run(self) -> float:
        """Seconds of one ``cli.main`` call, less any probes taken inside it."""
        from srlab import cli

        self.inner_speeds, self._inner_probe_s = [], 0.0
        t0 = time.perf_counter()
        status = cli.main(self.argv)
        elapsed = time.perf_counter() - t0 - self._inner_probe_s
        if status != 0:
            raise RuntimeError(f"srlab {self.argv[0]} exited with status {status}")
        return elapsed

    def _probe_inside(self) -> None:
        t0 = time.perf_counter()
        self.inner_speeds.append(machine_speed(self.probe))
        self._inner_probe_s += time.perf_counter() - t0

    def digest(self) -> str:
        paths = sorted(self.out_dir.glob("*.csv"))
        return _sha256(c for p in paths for c in (p.name.encode(), p.read_bytes()))


class SumP11(_CliWorkload):
    """Acceptance criterion-4 summation shape at p = 11."""

    P = 11
    N_GRID = (10, 100, 1000, 6000)
    TRIALS = 2
    LABELS = ("rn", "sr3", "sr6", "sr7", "sr8", "sr10", "sr_ideal")
    nominal = TRIALS * len(LABELS) * sum(n - 1 for n in N_GRID)
    records = len(N_GRID) * len(LABELS)

    def flags(self, seed: int) -> list[str]:
        return ["sum", "--p", str(self.P), "--r", "3,6,7,8,10,ideal",
                "--n-grid", ",".join(map(str, self.N_GRID)),
                "--trials", str(self.TRIALS), "--seed", str(seed)]

    def check(self) -> tuple[int, list[str]]:
        """Failed records: the (n, mode) grid in order, every mean error finite,
        non-negative and within the deterministic bound gamma_{n-1}(2**(1-p))
        (inputs are positive, so the condition number is 1)."""
        paths = list(self.out_dir.glob("*.csv"))
        if len(paths) != 1:
            return self.records, [f"expected one CSV, found {len(paths)}"]
        rows = _read_csv(paths[0])
        keys = [(n, m) for n in self.N_GRID for m in self.LABELS]
        if [(x, m) for x, m, _, _ in rows] != keys:
            return self.records, ["CSV rows are not the (n, mode) grid"]
        u = 2.0 ** (1 - self.P)
        bad = [(x, m) for x, m, v, se in rows
               if not (0.0 <= v <= (1 + u) ** (x - 1) - 1 and 0.0 <= se < math.inf)]
        return len(bad), [f"record {k} out of range" for k in bad[:5]]

    def check_counts(self, tracer) -> list[str]:
        if tracer.roundings != self.nominal:
            return [f"kernels did {tracer.roundings} roundings, closed form {self.nominal}"]
        return []


class RosenbrockP11(_CliWorkload):
    """Rosenbrock gradient descent at p = 11 from both default starts."""

    P = 11
    ITERS = 5000
    TRIALS = 2
    STARTS = ((0.0, 0.0), (0.5, 0.5))
    LABELS = ("fp64", "rn", "sr3", "sr6", "sr7", "sr8", "sr10")
    trajectories = (2 + 5 * TRIALS) * len(STARTS)
    nominal = 2 * ITERS * trajectories
    records = len(STARTS) * len(LABELS) * (ITERS + 1)

    def __init__(self, seed: int, out_dir: str, traced: bool = False):
        super().__init__(seed, out_dir, traced)
        self.first_missing: dict[tuple, int] = {}
        self._observe_divergence()

    def flags(self, seed: int) -> list[str]:
        return ["rosenbrock", "--p", str(self.P), "--r", "3,6,7,8,10",
                "--iters", str(self.ITERS), "--t", "0.001",
                "--trials", str(self.TRIALS), "--seed", str(seed)]

    def _observe_divergence(self) -> None:
        """Note, per (start, mode), the first iterate a diverged trajectory lacks.

        The CSV does not say which trajectories diverged, so one wrapper call
        per trajectory reads the flag.  An untraced run also probes the
        machine speed there: a batch lasts over a second, longer than the
        machine's speed stays put.  A traced run skips the probe, which
        would land in the experiments span.
        """
        from srlab import experiments

        gd = experiments.gd_rosenbrock
        missing = self.first_missing

        def observed(x0, t, iters, cfg, rng, *args, **kwargs):
            traj = gd(x0, t, iters, cfg, rng, *args, **kwargs)
            if traj.diverged:
                key = (tuple(x0), traj.mode)
                missing[key] = min(missing.get(key, iters + 1), len(traj.loss_series))
            if not self.traced:
                self._probe_inside()
            return traj

        experiments.gd_rosenbrock = observed

    def check(self) -> tuple[int, list[str]]:
        """Failed records: the (mode, k) grid in order per start, losses and
        standard errors finite and non-negative unless a trajectory of that
        mode was flagged diverged at or before k, iterate 0 equal to f(start)
        with zero spread, and zero spread for the deterministic modes."""
        failed, problems = 0, []
        names = {f"rosenbrock_p11_r3-6-7-8-10_start{a:g}-{b:g}.csv": (a, b)
                 for a, b in self.STARTS}
        found = sorted(p.name for p in self.out_dir.glob("*.csv"))
        if found != sorted(names):
            return self.records, [f"unexpected CSV files {found}"]
        keys = [(k, m) for m in self.LABELS for k in range(self.ITERS + 1)]
        for name, (a, b) in names.items():
            rows = _read_csv(self.out_dir / name)
            if [(k, m) for k, m, _, _ in rows] != keys:
                failed += len(keys)
                problems.append(f"{name}: rows are not the (mode, k) grid")
                continue
            f0 = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
            for k, m, v, se in rows:
                if not (math.isfinite(v) and math.isfinite(se)):
                    ok = k >= self.first_missing.get(((a, b), m), math.inf)
                else:
                    ok = v >= 0.0 and se >= 0.0
                    ok = ok and (k > 0 or (v == f0 and se == 0.0))
                    ok = ok and (m not in ("fp64", "rn") or se == 0.0)
                if not ok:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"{name}: record ({k}, {m}) = {v!r} ± {se!r}")
        return failed, problems

    def check_counts(self, tracer) -> list[str]:
        if tracer.diverged == 0 and tracer.roundings != self.nominal:
            return [f"kernels did {tracer.roundings} roundings, closed form {self.nominal}"]
        return []


class SrSample:
    """Bulk single-value sampling: criteria 2/3 single-rounding-law shape."""

    PS = (2, 8, 11, 24)
    RS = (1, 2, 4, 6, 8, "ideal")
    KINDS = ("positive", "negative", "on-grid")
    DRAWS = 100_000
    records = len(PS) * len(RS) * len(KINDS)
    nominal = records * DRAWS
    probe = "numpy"  # bulk sampling is bound by Philox and array passes
    inner_speeds: list[float] = []

    def __init__(self, seed: int, out_dir: str, traced: bool = False):
        import numpy as np
        from srlab import sr
        from shims import on_grid

        self.seed = seed
        gen = np.random.default_rng(seed)
        self.corpus = []  # (x, cfg, lower neighbor, upper neighbor)
        for p in self.PS:
            for r in self.RS:
                cfg = sr.sr_config(p, r)
                for kind in self.KINDS:
                    e = int(gen.integers(-60, 61))
                    if kind == "on-grid":
                        sig = int(gen.integers(1 << (p - 1), 1 << p))
                        x = math.ldexp(sig, e - p + 1) * (-1.0 if gen.integers(2) else 1.0)
                    else:
                        sig = int(gen.integers(1 << 52, 1 << 53))
                        x = math.ldexp(sig, e - 52) * (-1.0 if kind == "negative" else 1.0)
                    self.corpus.append((x, cfg, *self._neighbors(x, p, on_grid(x, p))))
        self.results: list[tuple[int, int, object]] = []

    @staticmethod
    def _neighbors(x: float, p: int, representable: bool) -> tuple[float, float]:
        if representable:
            return x, x
        m, e = math.frexp(abs(x))
        sig = int(m * 2.0**53) >> (53 - p)
        lo, hi = math.ldexp(sig, e - p), math.ldexp(sig + 1, e - p)
        return (-hi, -lo) if x < 0 else (lo, hi)

    def run(self) -> float:
        """Sample every value and its exact up-probability; time only srlab."""
        import numpy as np
        from srlab import dyadic, sr

        self.results = []
        elapsed = 0.0
        for i, (x, cfg, lower, upper) in enumerate(self.corpus):
            t0 = time.perf_counter()
            samples = sr.sr_sample(x, cfg, sr.RngStream(self.seed, i), self.DRAWS)
            q = dyadic.dy_q(dyadic.dy_from_float(x), cfg.p, cfg.r_bits)
            elapsed += time.perf_counter() - t0
            ups = int(np.count_nonzero(samples == upper)) if upper != lower else 0
            inside = int(np.count_nonzero((samples == upper) | (samples == lower)))
            self.results.append((ups, inside, q))
        return elapsed

    def digest(self) -> str:
        return _sha256([json.dumps([ups for ups, _, _ in self.results]).encode()])

    def check(self) -> tuple[int, list[str]]:
        """Failed values: a sample off the two neighbors, or an up-count more
        than 5 sigma from DRAWS * dy_q (exact when dy_q is 0 or 1)."""
        failed, problems = 0, []
        n = self.DRAWS
        for (x, cfg, _, _), (ups, inside, q) in zip(self.corpus, self.results):
            q = float(q)
            if 0.0 < q < 1.0:
                ok = abs(ups - n * q) <= 5.0 * math.sqrt(n * q * (1.0 - q))
            else:
                ok = ups == n * q
            if not (ok and inside == n):
                failed += 1
                problems.append(f"x={x!r} p={cfg.p} r={cfg.r}: {ups} ups, "
                                f"{n - inside} off-grid, q={q!r}")
        return failed, problems[:5]

    def check_counts(self, tracer) -> list[str]:
        if tracer.draws != self.nominal:
            return [f"sr_sample drew {tracer.draws} outcomes, expected {self.nominal}"]
        return []


WORKLOADS = {"sum-p11": SumP11, "rosenbrock-p11": RosenbrockP11, "sr-sample": SrSample}


def _stop_at_first_trial(job) -> dict:
    from srlab import sr

    def first_trial(*args, **kwargs):
        raise _FirstTrial(time.monotonic())

    sr.RngStream.__init__ = first_trial
    try:
        WORKLOADS[job["workload"]](job["seed"], job["out"]).run()
    except _FirstTrial as stop:
        return {"setup_s": stop.args[0] - job["t_spawn"]}
    raise RuntimeError("the workload finished without starting a trial")


def _batches(job) -> dict:
    tracer = None
    if job["trace"]:
        from shims import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[job["workload"]](job["seed"], job["out"], job["trace"])
    batches = []
    first = None  # (digest, failed, problems) of the first batch, checked in full
    start = None
    speed_before = machine_speed(workload.probe)
    while start is None or time.perf_counter() - start < job["seconds"]:
        batch = {"records": workload.records, "nominal": workload.nominal}
        try:
            if tracer is not None:
                tracer.reset()
            batch["seconds"] = workload.run()
            speed_after = machine_speed(workload.probe)
            speeds = [speed_before, speed_after, *workload.inner_speeds]
            batch["speed"] = sum(speeds) / len(speeds)
            speed_before = speed_after
            digest = workload.digest()
            if first is None or digest != first[0]:
                failed, problems = workload.check()
                if first is not None:
                    failed, problems = workload.records, [
                        "batch differs from the first batch (same flags and seed)"] + problems
            else:
                _, failed, problems = first
            if tracer is not None:
                counter_problems = tracer.violations + workload.check_counts(tracer)
                if counter_problems:
                    failed, problems = workload.records, problems + counter_problems
                batch["layers"] = tracer.metrics()
        except Exception:
            batch.update(digest=None, failed=workload.records,
                         problems=[traceback.format_exc(limit=4)])
            batches.append(batch)
            break
        batch.update(digest=digest, failed=failed, problems=problems)
        if first is None:
            first = (digest, failed, problems)
            batch["warmup"] = True
            start = time.perf_counter()
        batches.append(batch)
    import numpy

    return {
        "batches": batches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "missing_shims": tracer.missing if tracer is not None else [],
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import srlab

    if Path(srlab.__file__).resolve().parent != (src / "srlab").resolve():
        raise SystemExit(f"srlab was imported from {srlab.__file__}, not from {src}")
    report = _stop_at_first_trial(job) if job["phase"] == "setup" else _batches(job)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
