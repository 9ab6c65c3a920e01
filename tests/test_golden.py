"""Byte-identity gate: sha256 of the CSVs that small CLI runs write.

The digests were recorded before the sum/dot driver and the option handling
were refactored, ``sum-refill`` before the scalar rounding core and the
list-served random words were, and ``rosenbrock-diverge`` after a start
whose loss is inf became a divergence and diverged baselines got stderr
NaN, and ``rosenbrock-one-trial`` before the Rosenbrock baselines and
stochastic modes shared one loop; a change that alters any byte a run writes
for the same flags and seed fails here.  When output bytes change on purpose, record the
new digests with ``python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from srlab.cli import main

# vector files for --input-file runs and the --config run
_FILES = {
    "ab.txt": "# a, b\n0.3, 1.7\n0.125, 3.0\n2.5, 0.0625\n1e-3, 700\n0.9, 0.9\n",
    "sum.cfg": "p = 11\nr = 3,7,ideal   # random-bit budgets\nn_grid = 10,50\n"
               "trials = 5\nseed = 3\n",
}

CASES = {
    "sum-config": ["sum", "--config", "{dir}/sum.cfg", "--seed", "4"],
    "dot": ["dot", "--p", "8", "--r", "2,5", "--n-grid", "7,30", "--trials", "4",
            "--seed", "11"],
    "dot-input-file": ["dot", "--p", "11", "--r", "3,ideal", "--trials", "6",
                       "--seed", "5", "--input-file", "{dir}/ab.txt"],
    "rosenbrock": ["rosenbrock", "--p", "11", "--r", "3,8", "--iters", "40",
                   "--trials", "3", "--seed", "2"],
    "bounds-table": ["bounds-table"],
    # each trial stream mixes bulk input draws with single draws that start
    # and end in partial Philox blocks and refill in the middle of a chain
    "sum-refill": ["sum", "--p", "11", "--r", "3,ideal", "--n-grid", "100,3000",
                   "--trials", "2"],
    # the loss at this start is inf without an OverflowError: every
    # trajectory diverges at the start
    "rosenbrock-diverge": ["rosenbrock", "--start", "1e120,0", "--iters", "3",
                           "--trials", "2", "--r", "3"],
    # every mode, the SR ones included, runs once
    "rosenbrock-one-trial": ["rosenbrock", "--p", "11", "--r", "3,ideal", "--iters", "40",
                             "--trials", "1", "--seed", "2"],
}

GOLDEN = {
    "sum-config": {
        "sum_p11_r3-7-ideal.csv": "f41ba57f6392b618345acf2289855cc962857f163221c8a434e6f26a72cc8527",
    },
    "dot": {
        "dot_p8_r2-5.csv": "4e7a52f91d01b1588ccfc48ae68c8701b7838a613bb9c807894d48f9d7345c5a",
    },
    "dot-input-file": {
        "dot_p11_r3-ideal.csv": "2e89bf283b9c6182228b915f14edd176bd5860b1b2d1ef212badaa9613781e1e",
    },
    "rosenbrock": {
        "rosenbrock_p11_r3-8_start0-0.csv": "9161d330b3b2c0935aba3030c89107aaf27d09111e64df64ae7a96a591500233",
        "rosenbrock_p11_r3-8_start0.5-0.5.csv": "ff48070dc1b5394341e7ee4a59ad3ceb862737e176e32e55c4f883c62f96542d",
    },
    "bounds-table": {
        "bounds-table_p11_r3-6-7-8-10.csv": "09bb5d5b7e757a1648acdbf59b49264645942a53a7cc0fb2b3f1bc3163259581",
    },
    "sum-refill": {
        "sum_p11_r3-ideal.csv": "1247985f2e0f91b2cd769b5f9a64c1502841d3faef14bfd21a83299096d14faa",
    },
    "rosenbrock-diverge": {
        "rosenbrock_p11_r3_start1e+120-0.csv": "343809549cfe6572723c0ac202a88c13a4d3afd8f152c5981a42493b5327451f",
    },
    "rosenbrock-one-trial": {
        "rosenbrock_p11_r3-ideal_start0-0.csv": "4409084d0b534e6ec31e339e821f7abfe4be9fed6f64f72f868eb4a7b92a46dc",
        "rosenbrock_p11_r3-ideal_start0.5-0.5.csv": "fd6985d9b5f161a0415b9938d4cbfe3075ced3cd643a70276fe74bf902bd1234",
    },
}


def run_case(name: str, root: Path) -> dict[str, str]:
    """Run one case in ``root``; map each CSV written to its sha256."""
    inputs, out = root / "in", root / "out"
    inputs.mkdir()
    for fname, text in _FILES.items():
        (inputs / fname).write_text(text, encoding="utf-8")
    argv = [a.format(dir=inputs) for a in CASES[name]] + ["--out-dir", str(out)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_recorded_digests(name, tmp_path, capsys):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = run_case(case, Path(tmp))
        print(f"    {case!r}: {digests!r},")
