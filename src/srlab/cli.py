"""Command-line frontend: rounding demos, experiment runners, bound tables.

Flags override config-file values (``key = value`` lines, ``#`` comments);
environment variables are never consulted.  Exit codes: 0 success, 1
domain/range/runtime errors, 2 flag or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import bounds, experiments
from .dyadic import dy_from_float, dy_q
from .rounding import SubstrateRangeError, round_down, round_up, truncate, ulp
from .sr import IDEAL, RngStream, sr_config, sr_sample


def _parse_r_value(token: str):
    token = token.strip().lower()
    if token == "ideal":
        return IDEAL
    return int(token)


def _parse_r_list(text: str) -> tuple:
    return tuple(_parse_r_value(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_point(text: str) -> tuple:
    parts = [tok for tok in text.split(",") if tok.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_SPEC = {f.name: f.default for f in dataclasses.fields(experiments.ExperimentSpec)}

# options shared by several commands: dest -> (converter, default, help)
_P = {"p": (int, _SPEC["p"], "target precision (significand bits)")}
_R_LIST = {"r": (_parse_r_list, _SPEC["r_list"], "random bits, comma list, e.g. 3,7,ideal")}
_N_GRID = {"n_grid": (_parse_int_list, None, "problem sizes, comma list")}
_TRIALS = {
    "trials": (int, _SPEC["trials"], "Monte Carlo trials"),
    "seed": (int, _SPEC["seed"], "random seed"),
}
_OUT_DIR = {"out_dir": (str, _SPEC["out_dir"], "directory for the CSV files")}

# per-command options: dest -> (converter, default, help).  Each option is the
# flag --<dest> with '_' written '-' (--lambda for lam) and the config key <dest>.
_SCHEMAS = {
    "round": {
        "value": (float, None, "value to round"),
        **_P,
        "r": (_parse_r_value, IDEAL, "random bits, or 'ideal'"),
        "samples": (int, 0, "Monte Carlo samples to draw"),
        "seed": (int, 0, "random seed"),
    },
    "sum": {
        **_P, **_R_LIST, **_N_GRID,
        "n_max": (int, None, "grid 10, 20, 40, ... up to n_max"),
        **_TRIALS, **_OUT_DIR,
        "input_file": (str, None, "fixed input vectors, one column (sum) or two (dot)"),
    },
    "rosenbrock": {
        **_P, **_R_LIST,
        "iters": (int, _SPEC["iters"], "gradient-descent iterations"),
        "t": (float, _SPEC["step"], "learning rate"),
        "start": (_parse_point, None, "start point 'x,y' (default: both default starts)"),
        **_TRIALS, **_OUT_DIR,
    },
    "bounds-table": {
        **_P, **_R_LIST,
        "lam": (float, _SPEC["lam"], "failure probability"),
        **_N_GRID,
        "n_max": (int, _SPEC["n_grid"][-1], "grid 10, 20, 40, ... up to n_max"),
        **_OUT_DIR,
    },
    "suggest-r": {
        "n": (int, None, "problem size"),
    },
}
_SCHEMAS["dot"] = _SCHEMAS["sum"]

_COMMANDS = {
    "round": "inspect the rounding of a single value",
    "sum": "recursive-summation error experiment",
    "dot": "inner-product error experiment",
    "rosenbrock": "gradient-descent convergence experiment",
    "bounds-table": "evaluate closed-form error bounds on an n grid",
    "suggest-r": "random-bit budget for a problem size",
}

# option dest -> ExperimentSpec field, where the names differ
_SPEC_FIELD = {"r": "r_list", "t": "step"}


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    schema = _SCHEMAS[args.command]
    config = {}
    if args.config:
        try:
            config = _read_config(args.config)
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        unknown = set(config) - set(schema)
        if unknown:
            parser.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (conv, default, _) in schema.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in config:
            try:
                resolved[key] = conv(config[key])
            except ValueError as exc:
                parser.error(f"config key {key}: {exc}")
        else:
            resolved[key] = default
    return resolved


def _n_grid(opts) -> tuple:
    """--n-grid, else 10, 20, 40, ... up to --n-max, else the default grid."""
    if opts["n_grid"] is not None:
        return opts["n_grid"]
    n_max = opts["n_max"]
    if n_max is None:
        return _SPEC["n_grid"]
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    grid, n = [], 10
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(n_max)
    return tuple(grid)


def _check(command: str, opts):
    """What the command runs on, built from its options: an ExperimentSpec,
    the SrConfig of ``round`` or the answer of ``suggest-r``.

    Raises ValueError when an option is missing or out of range.
    """
    if command == "round":
        if opts["value"] is None:
            raise ValueError("--value is required")
        if not math.isfinite(opts["value"]):
            raise ValueError(f"--value must be finite, got {opts['value']!r}")
        if opts["samples"] < 0:
            raise ValueError(f"--samples must be >= 0, got {opts['samples']}")
        return sr_config(opts["p"], opts["r"])
    if command == "suggest-r":
        if opts["n"] is None:
            raise ValueError("--n is required")
        return bounds.rule_of_thumb_r(opts["n"])
    fields = {_SPEC_FIELD.get(k, k): v for k, v in opts.items()}
    fields = {k: v for k, v in fields.items() if k in _SPEC}
    if "n_max" in opts:
        fields["n_grid"] = _n_grid(opts)
    if opts.get("start"):
        fields["starts"] = (opts["start"],)
    return experiments.ExperimentSpec(kind=command, **fields)


def _round(opts, cfg) -> None:
    x, p, fmt = opts["value"], cfg.p, cfg.fmt
    q = dy_q(dy_from_float(x), p, cfg.r_bits)
    print(f"value     = {x:.17g}")
    print(f"floor     = {round_down(x, fmt):.17g}")
    print(f"ceil      = {round_up(x, fmt):.17g}")
    if x != 0.0:
        print(f"ulp       = {ulp(x, fmt):.17g}")
    print(f"truncated = {truncate(x, p + cfg.r_bits):.17g}  (width {p + cfg.r_bits})")
    print(f"q_r       = {q} (= {float(q):.17g})")
    if opts["samples"] > 0:
        samples = sr_sample(x, cfg, RngStream(opts["seed"], 0), opts["samples"])
        lo, up = round_down(x, fmt), round_up(x, fmt)
        freq = float((samples == up).mean()) if lo != up else 0.0
        print(f"empirical up-frequency over {opts['samples']} samples: {freq:.6f}")


def _experiment(spec: experiments.ExperimentSpec) -> None:
    """Run the experiment and write its CSV, one per start for Rosenbrock."""
    for start in spec.starts if spec.kind == "rosenbrock" else (None,):
        t0 = time.perf_counter()
        if spec.kind in ("sum", "dot"):
            rows = experiments.run_sum_experiment(spec)
        elif spec.kind == "rosenbrock":
            rows = experiments.run_rosenbrock(spec, start)
        else:
            rows = experiments.run_bounds_table(spec)
        elapsed = time.perf_counter() - t0
        path = Path(spec.out_dir) / experiments.csv_name(spec, start)
        experiments.write_rows(path, rows)
        print(f"wrote {path} ({elapsed:.2f}s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Limited-precision stochastic rounding laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key = value config file; flags win")
        for dest, (conv, _, help_opt) in _SCHEMAS[name].items():
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            sp.add_argument(flag, dest=dest, type=conv, help=help_opt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _resolve(args, parser)
    try:
        target = _check(args.command, opts)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "round":
            _round(opts, target)
        elif args.command == "suggest-r":
            print(target)
        else:
            _experiment(target)
    except (ValueError, SubstrateRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
