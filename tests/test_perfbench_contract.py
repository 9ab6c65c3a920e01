"""The traced benchmark run holds on the current sources.

perfbench reaches srlab through the names it shims (``kernels.sr_round``,
``kernels.round_nearest``, ``experiments.gd_rosenbrock`` called with the
config at ``args[3]``, ``sr.sr_sample``, ...) and checks closed-form
counters on every traced batch.  A kernel that goes around those names
fails that run while the rest of the suite passes, so one traced batch of
each workload runs here, exactly as ``perfbench/run.py --trace 1`` starts it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# workload -> (kernels.roundings, sr.rng.words) of one seed-1 batch
COUNTS = {
    "rosenbrock-p11": (240_000, 199_509),
    "sum-p11": (99_484, 85_076),
    "sr-sample": (0, 4_800_000),
}

SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_one_traced_batch_is_correct(workload, tmp_path):
    job = {"root": str(ROOT), "workload": workload, "seed": 1, "phase": "run",
           "seconds": 0, "trace": True, "out": str(tmp_path),
           "t_spawn": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, "-s", str(PERFBENCH / "child.py"), json.dumps(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"},
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing_shims"] == []
    (batch,) = report["batches"]
    assert batch["problems"] == []
    assert batch["failed"] == 0
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    assert batch["digest"] == recorded[workload]["1"]
    roundings, words = COUNTS[workload]
    assert batch["layers"]["kernels.roundings"] == roundings
    assert batch["layers"]["sr.rng.words"] == words
