"""srlab benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload sum-p11 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; srlab is imported from its ``src/``.
Workloads (defined in ``child.py``, listed in ``BENCHMARK.json``):
``sum-p11``, ``rosenbrock-p11`` and ``sr-sample``.

``--trace 0`` prints the end-to-end metrics: ``roundings_per_s`` (median
over timed batches of one fresh interpreter, wall seconds scaled by the
machine speed probed around each batch; see README.md), ``setup_s``
(median over fresh interpreters of the time from spawn to the first
trial, scaled by the speed of a bare interpreter start) and
``peak_rss_mb``.  ``--trace 1`` prints the per-layer metrics of a run
under the shims of ``shims.py``, the Philox calibration and
``trace.overhead_frac``, taken from an untraced and a traced interpreter.
Both print ``failed_frac`` and a machine block; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only if every output check passed.

    python3 perfbench/run.py --record-digests 0-127

runs one batch per workload and seed and rewrites ``digests.json``, the
output digests a run compares against; do this only when a change is
meant to alter srlab's output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the workload interpreters, and numpy in this one, stay single-threaded
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 9
# a bare interpreter start that imports numpy, on the reference machine
REFERENCE_SPAWN_S = 0.2
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(job: dict, timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON report."""
    job = dict(job, root=str(ROOT), t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} {job['phase']} took over {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} {job['phase']} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    """Size of the highest-level CPU cache, 32 MiB if the OS does not say."""
    best = (0, 32 << 20)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            text = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def _philox_ns_per_word(llc: int) -> tuple[float, int]:
    """Raw ``Philox.random_raw`` rate into an array of at least 4x the LLC."""
    import numpy as np

    words = 4 * llc // 8 + 1
    bitgen = np.random.Philox(0)
    t0 = time.perf_counter()
    out = bitgen.random_raw(words)
    elapsed = time.perf_counter() - t0
    del out
    return elapsed / words * 1e9, words * 8


def _median_quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


class _Tally:
    """Output checks over every batch of a run."""

    def __init__(self, workload: str, seed: int):
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get(workload, {}).get(str(seed))
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def add(self, batches: list[dict]) -> list[dict]:
        """Count every batch; return the timed ones that produced output."""
        timed = []
        for b in batches:
            failed = b["failed"]
            if b["digest"] is not None:
                self.digests.add(b["digest"])
                if self.recorded is not None and b["digest"] != self.recorded:
                    failed = b["records"]
                    self.problems.append(f"digest {b['digest']} differs from the recorded one")
                elif not b.get("warmup"):
                    timed.append(b)
            self.attempted += b["records"]
            self.failed += failed
            self.problems.extend(b["problems"])
        return timed

    def report(self) -> None:
        digests = ", ".join(sorted(self.digests)) or "none"
        if self.recorded is None:
            print(f"output: no recorded digest for seed {self.seed}; invariants checked; digest {digests}")
        else:
            state = "matches" if self.digests == {self.recorded} else "DIFFERS FROM"
            print(f"output: digest {digests} {state} the recorded digest for seed {self.seed}")
        for text in dict.fromkeys(self.problems):
            print(f"check failed: {text}")
        frac = self.failed / self.attempted if self.attempted else 1.0
        print(f"failed_frac = {frac!r} frac ({self.failed} of {self.attempted} output records)")


def _rates(batches: list[dict], scaled: bool = True) -> list[float]:
    """Nominal roundings per second of each batch; ``scaled`` divides by the
    machine speed measured around the batch (see ``child.machine_speed``)."""
    return [b["nominal"] / (b["seconds"] * (b["speed"] if scaled else 1.0)) for b in batches]


def _spawn_seconds() -> float:
    """Wall seconds for an interpreter start that imports numpy but not srlab."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-s", "-c", "import numpy"], cwd=ROOT, check=True, timeout=60)
    return time.monotonic() - t0


def _run(args, spec: dict, out: Path) -> tuple[dict, _Tally]:
    job = {"workload": args.workload, "seed": args.seed, "out": str(out), "trace": False}
    tally = _Tally(args.workload, args.seed)
    llc = _llc_bytes()
    print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} llc_bytes={llc}")
    values: dict[str, float] = {}
    if not args.trace:
        setup, spawn = [], []
        for _ in range(SETUP_PROBES):
            spawn.append(_spawn_seconds())
            setup.append(_child(dict(job, phase="setup"), 60)["setup_s"])
        report = _child(dict(job, phase="run", seconds=args.seconds), CHILD_TIMEOUT_S)
        timed = tally.add(report["batches"])
        print(f"machine: numpy={report['numpy']}, workload interpreters single-threaded")
        if not timed:
            raise BenchError("no batch completed; " + "; ".join(tally.problems[:3]))
        rates = _rates(timed)
        speeds = [b["speed"] for b in timed]
        spawn_speed = REFERENCE_SPAWN_S / statistics.median(spawn)
        print(f"wall: roundings_per_s = {statistics.median(_rates(timed, False))!r} 1/s, "
              f"setup_s = {statistics.median(setup)!r} s, unscaled; machine speed "
              f"{statistics.median(speeds):.4g} of the reference ({_median_quartiles(speeds)}), "
              f"{spawn_speed:.4g} on interpreter start")
        values = {
            "roundings_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup) * spawn_speed,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        notes = {
            "roundings_per_s": f"median over timed batches, {_median_quartiles(rates)}; "
                               f"{timed[0]['nominal']} nominal roundings per batch",
            "setup_s": f"median over fresh interpreters, wall {_median_quartiles(setup)}, "
                       f"scaled by interpreter-start speed",
            "peak_rss_mb": "workload interpreter, max resident set",
        }
    else:
        philox_ns, array_bytes = _philox_ns_per_word(llc)
        print(f"calib: philox_ns_per_word={philox_ns!r} over a {array_bytes}-byte array "
              f"(last-level cache {llc} bytes)")
        plain = _child(dict(job, phase="run", seconds=args.seconds / 3), CHILD_TIMEOUT_S)
        traced = _child(dict(job, phase="run", seconds=2 * args.seconds / 3, trace=True),
                        CHILD_TIMEOUT_S)
        print(f"machine: numpy={traced['numpy']}, workload interpreters single-threaded")
        plain_timed, traced_timed = tally.add(plain["batches"]), tally.add(traced["batches"])
        if not (plain_timed and traced_timed):
            raise BenchError("no batch completed; " + "; ".join(tally.problems[:3]))
        for name in traced["missing_shims"]:
            print(f"trace: srlab has no {name}; its metrics read 0")
        for name in traced_timed[0]["layers"]:
            values[name] = statistics.median(b["layers"][name] for b in traced_timed)
        values["calib.philox_ns_per_word"] = philox_ns
        values["sr.sample_vs_philox"] = values["sr.sr_sample.ns_per_draw"] / philox_ns
        values["trace.overhead_frac"] = (
            statistics.median(_rates(plain_timed)) / statistics.median(_rates(traced_timed)) - 1.0
        )
        notes = {name: f"median over {len(traced_timed)} traced batches, per batch"
                 for name in traced_timed[0]["layers"]}
    print(f"workload: {args.workload} seed={args.seed} trace={int(args.trace)} "
          f"seconds={args.seconds}")
    tally.report()
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"{m['name']} = {value!r} {m['unit']}" + (f"  ({note})" if note else ""))
    return metrics, tally


def _record_digests(seeds: list[int], workloads: list[str], out: Path) -> int:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in workloads:
        for seed in seeds:
            job = {"workload": workload, "seed": seed, "out": str(out / f"{workload}-{seed}"),
                   "trace": False, "phase": "run", "seconds": 0}
            (batch,) = _child(job, CHILD_TIMEOUT_S)["batches"]
            if batch["failed"]:
                print(f"{workload} seed {seed}: checks failed, not recorded: {batch['problems']}")
                return 1
            recorded.setdefault(workload, {})[str(seed)] = batch["digest"]
            print(f"{workload} seed {seed}: {batch['digest']}")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="FIRST-LAST", type=_seed_range)
    args = parser.parse_args()

    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        print(f"error: no srlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.record_digests is None and args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.record_digests is not None:
            return _record_digests(args.record_digests, workloads, out)
        metrics, tally = _run(args, spec, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
