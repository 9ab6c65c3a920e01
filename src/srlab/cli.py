"""Command-line frontend: rounding demos, experiment runners, bound tables.

Flags override config-file values (``key = value`` lines, ``#`` comments),
which override the defaults; environment variables are never consulted.
Exit codes: 0 success, 1 domain/range/runtime errors, 2 flag or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import time
from pathlib import Path

from . import bounds, experiments
from .dyadic import dy_from_float, dy_q
from .rounding import check_int, round_down, round_up, truncate, ulp
from .sr import IDEAL, KEY_MAX, RngStream, sr_config, sr_sample


def _parse_r_value(token: str):
    token = token.strip().lower()
    if token == "ideal":
        return IDEAL
    return int(token)


def _parse_r_list(text: str) -> tuple:
    return tuple(_parse_r_value(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_start(text: str) -> tuple:
    parts = [tok for tok in text.split(",") if tok.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return ((float(parts[0]), float(parts[1])),)


def _read_config(path: str, command: str, parser) -> dict:
    """The values of a ``key = value`` config file, each converted by its
    option's converter; a bad file, key or value exits 2 via ``parser``."""
    schema = _COMMANDS[command][1]
    values, unknown = {}, set()  # dest -> (key, text): a later line wins
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in schema:
            unknown.add(key)
        values[_DEST.get(key, key)] = key, value.strip()
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for dest, (key, value) in values.items():
        try:
            values[dest] = schema[key][0](value)
        except ValueError as exc:
            parser.error(f"config key {key}: {exc}")
    return values


_SPEC = {f.name: f.default for f in dataclasses.fields(experiments.ExperimentSpec)}


# options shared by several commands: key -> (converter, default, help)
_P = {"p": (int, _SPEC["p"], "target precision (significand bits)")}
_R_LIST = {"r": (_parse_r_list, _SPEC["r_list"], "random bits, comma list, e.g. 3,7,ideal")}
_TRIALS = {
    "trials": (int, _SPEC["trials"], "Monte Carlo trials"),
    "seed": (int, _SPEC["seed"], "random seed"),
}
_GRID = {
    "n_grid": (_parse_int_list, _SPEC["n_grid"], "problem sizes, comma list"),
    "n_max": (experiments._doubling_grid, _SPEC["n_grid"], "grid 10, 20, 40, ... up to n_max"),
}
_OUT_DIR = {"out_dir": (str, _SPEC["out_dir"], "directory for the CSV files")}

# command -> (help, options), where options maps key -> (converter, default,
# help).  Each option is the flag --<key> with '_' written '-' (--lambda for
# lam) and the config key <key>.  sum and dot share one options dict.
_SUM = {
    **_P, **_R_LIST, **_GRID, **_TRIALS, **_OUT_DIR,
    "input_file": (str, None, "fixed input vectors, one column (sum) or two (dot)"),
}
_COMMANDS = {
    "round": ("inspect the rounding of a single value", {
        "value": (float, None, "value to round"),
        **_P,
        "r": (_parse_r_value, IDEAL, "random bits, or 'ideal'"),
        "samples": (int, 0, "Monte Carlo samples to draw"),
        "seed": (int, 0, "random seed"),
    }),
    "sum": ("recursive-summation error experiment", _SUM),
    "dot": ("inner-product error experiment", _SUM),
    "rosenbrock": ("gradient-descent convergence experiment", {
        **_P, **_R_LIST,
        "iters": (int, _SPEC["iters"], "gradient-descent iterations"),
        "t": (float, _SPEC["step"], "learning rate"),
        "start": (_parse_start, None, "start point 'x,y' (default: both default starts)"),
        **_TRIALS, **_OUT_DIR,
    }),
    "bounds-table": ("evaluate closed-form error bounds on an n grid", {
        **_P, **_R_LIST,
        "lam": (float, _SPEC["lam"], "failure probability"),
        **_GRID, **_OUT_DIR,
    }),
    "suggest-r": ("random-bit budget for a problem size", {"n": (int, None, "problem size")}),
}

# option key -> its dest, where two options set one value (the last given wins)
_DEST = {"n_max": "n_grid", "start": "starts"}

# option dest -> ExperimentSpec field, where the names differ
_SPEC_FIELD = {"r": "r_list", "t": "step"}


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
        check_int("--samples", opts["samples"], 0)
        check_int("seed", opts["seed"], 0, KEY_MAX)
        return sr_config(opts["p"], opts["r"])
    if command == "suggest-r":
        if opts["n"] is None:
            raise ValueError("--n is required")
        return bounds.rule_of_thumb_r(opts["n"])
    fields = {_SPEC_FIELD.get(k, k): v for k, v in opts.items()}
    fields = {k: v for k, v in fields.items() if k in _SPEC and v is not None}
    return experiments.ExperimentSpec(kind=command, **fields)


def _round(opts, cfg) -> None:
    # every line is computed before any is printed: a range error prints none
    x, p, fmt = opts["value"], cfg.p, cfg.fmt
    q = dy_q(dy_from_float(x), p, cfg.r_bits)
    lo, up = round_down(x, fmt), round_up(x, fmt)
    lines = [f"value     = {x:.17g}", f"floor     = {lo:.17g}", f"ceil      = {up:.17g}"]
    if x != 0.0:
        lines.append(f"ulp       = {ulp(x, fmt):.17g}")
    lines.append(f"truncated = {truncate(x, p + cfg.r_bits):.17g}  (width {p + cfg.r_bits})")
    lines.append(f"q_r       = {q} (= {float(q):.17g})")
    if opts["samples"] > 0:
        samples = sr_sample(x, cfg, RngStream(opts["seed"], 0), opts["samples"])
        freq = float((samples == up).mean()) if lo != up else 0.0
        lines.append(f"empirical up-frequency over {opts['samples']} samples: {freq:.6f}")
    print("\n".join(lines))


def _experiment(spec: experiments.ExperimentSpec) -> None:
    """Run the experiment and write its CSV, one per start for Rosenbrock."""
    for start in spec.starts if spec.kind == "rosenbrock" else (None,):
        t0 = time.perf_counter()
        if spec.kind in ("sum", "dot"):
            table = experiments.run_sum_experiment(spec)
        elif spec.kind == "rosenbrock":
            table = experiments.run_rosenbrock(spec, start)
        else:
            table = experiments.run_bounds_table(spec)
        elapsed = time.perf_counter() - t0
        path = Path(spec.out_dir) / experiments.csv_name(spec, start)
        experiments.write_rows(path, table)
        del table  # one start's table need not live through the next start's run
        print(f"wrote {path} ({elapsed:.2f}s)")


def _own_message(conv):
    """``conv`` for argparse, which prints a converter's name, not its ValueError."""
    def convert(text):
        try:
            return conv(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    """The srlab parser.  Its ``commands`` maps each command to its own parser."""
    # no abbreviations: a config file refuses the key tri, so --tri is refused too
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Limited-precision stochastic rounding laboratory", allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        # argparse reads only -5 and -1.5 as values, so "--start -0.5,0.5" would
        # lose its value; no srlab flag starts with '-' and a digit
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
        sp.add_argument("--config", help="key = value config file; flags win")
        for key, (conv, default, help_opt) in options.items():
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            if conv not in (int, float, str):  # argparse's messages name these well
                conv = _own_message(conv)
            sp.add_argument(flag, dest=_DEST.get(key, key), type=conv, default=default,
                            metavar=key.upper(), help=help_opt)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command_parser = parser.commands[args.command]  # its errors show its usage
    if args.config:
        # argparse runs a str default through `type` again, so a converter must
        # map each str it returns (out_dir, input_file, round's r) to itself
        command_parser.set_defaults(**_read_config(args.config, args.command, command_parser))
        args = parser.parse_args(argv)
    opts = vars(args)
    try:
        target = _check(args.command, opts)
    except ValueError as exc:
        command_parser.error(str(exc))
    try:
        if args.command == "round":
            _round(opts, target)
        elif args.command == "suggest-r":
            print(target)
        else:
            _experiment(target)
    except (ValueError, ArithmeticError, OSError) as exc:  # range errors and overflows
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
