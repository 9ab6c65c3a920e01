import ast
import inspect
import re
import shlex
import weakref
from pathlib import Path

import pytest

from srlab import cli, experiments
from srlab.cli import _check, build_parser, main
from srlab.sr import sr_config


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suggest_r(capsys):
    for n, expect in ((6000, "7"), (5000, "7"), (64000, "8"), (4, "1")):
        code, out, _ = run_cli(["suggest-r", "--n", str(n)], capsys)
        assert code == 0
        assert out.strip() == expect


def test_suggest_r_rejects_small_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suggest-r", "--n", "1"])
    assert exc.value.code == 2


def test_round_reports_exact_probability(capsys):
    code, out, _ = run_cli(
        ["round", "--value", "1.3125", "--p", "2", "--r", "1"], capsys
    )
    assert code == 0
    assert "floor     = 1\n" in out
    assert "ceil      = 1.5\n" in out
    assert "q_r       = 1/2" in out


def test_round_representable_is_deterministic(capsys):
    code, out, _ = run_cli(
        ["round", "--value", "1.5", "--p", "2", "--r", "4", "--samples", "50"], capsys
    )
    assert code == 0
    assert "q_r       = 0" in out
    assert "up-frequency over 50 samples: 0.000000" in out


def test_round_empirical_frequency(capsys):
    code, out, _ = run_cli(
        [
            "round", "--value", "1.3125", "--p", "2", "--r", "3",
            "--samples", "8000", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    freq = float(out.rsplit(":", 1)[1])
    assert abs(freq - 0.625) < 0.02


def test_round_range_error_exits_1(capsys):
    code, out, err = run_cli(["round", "--value", "1.7e308", "--p", "2", "--r", "1"], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["1e-310", "5e-324"])
def test_round_range_error_prints_no_partial_report(value, capsys):
    # 5e-324 is on the grid, but the ulp of its binade is below the normal range
    code, out, err = run_cli(["round", "--value", value, "--p", "11", "--r", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: result underflows to a binary64 subnormal\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, text",
    [("sum", f"1\n{2.0**-11!r}\n-1\n{-2.0**-11!r}\n"), ("dot", "1, 1\n1, -1\n")],
    ids=["sum", "dot"],
)
def test_input_file_with_zero_exact_value_exits_1(kind, text, tmp_path, capsys):
    # the relative error of a result whose exact value is zero is undefined
    data = tmp_path / "vec.txt"
    data.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(
        [kind, "--r", "3", "--trials", "2", "--input-file", str(data), "--out-dir", str(out)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and "is zero" in err
    assert not out.exists()


def test_relative_error_beyond_binary64_exits_1(tmp_path, capsys):
    # the exact sum is 2**-1074 and the result 0.0, so the relative error is
    # 2**1074: its OverflowError is one error line, not a traceback
    data = tmp_path / "vec.txt"
    data.write_text("1152921504606846976\n1.0\n-1152921504606846976\n-1.0\n5e-324\n")
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sum", "--r", "3", "--trials", "2", "--input-file", str(data), "--out-dir", str(out)],
        capsys,
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["round", "--value", "1.0", "--nope", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sum", "--tri", "2", "--r", "3", "--n-grid", "10"],
    ["bounds-table", "--lam", "0.5"],
], ids=["tri", "lam"])
def test_abbreviated_flag_exits_2(argv, capsys):
    # an option has one spelling: a config file refuses the key tri, so the
    # command line refuses the flag --tri
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:3])}" in capsys.readouterr().err


def test_invalid_p_r_combination_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["round", "--value", "1.0", "--p", "50", "--r", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rosenbrock", "--trials", "0"],
        ["sum", "--n-grid", "100,10"],
        ["sum", "--n-grid", "0"],
        ["sum", "--n-grid", "-5"],
        ["sum", "--n-max", "0"],
        ["sum", "--p", "53", "--r", "ideal"],
        ["rosenbrock", "--p", "53", "--r", "ideal"],
        ["round", "--value", "1.0", "--p", "53", "--r", "ideal"],
        ["sum", "--r", ",", "--n-grid", "10"],
        ["sum", "--n-grid", ","],
        ["round", "--value", "1.3", "--samples", "-4"],
        ["sum", "--r", "3,3"],
        ["rosenbrock", "--r", "3,3"],
        ["rosenbrock", "--start", "nan,0", "--iters", "3", "--trials", "2", "--r", "3"],
        ["rosenbrock", "--start", "1e400,1", "--iters", "3", "--trials", "2", "--r", "3"],
        ["rosenbrock", "--t", "inf", "--iters", "3", "--trials", "2", "--r", "3"],
        ["rosenbrock", "--t", "nan", "--iters", "3", "--trials", "2", "--r", "3"],
        ["round", "--value", "nan"],
        ["round", "--value", "inf"],
        ["round", "--value", "1e400", "--p", "8"],
        ["sum", "--n-grid", "10", "--trials", "3", "--seed", "-1"],
        ["rosenbrock", "--iters", "3", "--trials", "2", "--seed", "18446744073709551616"],
        ["round", "--value", "1.3", "--samples", "4", "--seed", "-1"],
        ["round"],
        ["suggest-r"],
    ],
    ids=" ".join,
)
def test_bad_experiment_flags_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, option, message",
    [
        (["sum", "--n-grid", "x"], "--n-grid", "'x'"),
        (["sum", "--n-max", "0"], "--n-max", "n_max must be >= 1, got 0"),
        (["rosenbrock", "--start", "1"], "--start", "expected 'x,y', got '1'"),
        (["sum", "--r", "foo"], "--r", "'foo'"),
        (["round", "--value", "1.0", "--r", "foo"], "--r", "'foo'"),
    ],
    ids=["sum-n-grid", "sum-n-max", "rosenbrock-start", "sum-r", "round-r"],
)
def test_bad_option_value_shows_the_converter_message(argv, option, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"srlab {argv[0]}: error: argument {option}: ")
    assert message in last
    assert "_parse" not in last and "_doubling" not in last


def test_option_error_shows_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--trials", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: srlab sum ")
    assert "srlab sum: error: trials must be >= 1, got 0" in err


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--n-grid", "10,100"], ""),
        (["--n-max", "40"], ""),
        ([], "n_grid = 10,100\n"),
        ([], "n-max = 40\n"),
    ],
    ids=["n-grid-flag", "n-max-flag", "n-grid-key", "n-max-key"],
)
def test_input_file_refuses_a_grid(flags, config, tmp_path, capsys):
    data = tmp_path / "vec.txt"
    data.write_text("1.5\n2.25\n3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--config", str(cfg), "--input-file", str(data), "--trials", "2",
              "--out-dir", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--input-file fixes n" in err
    assert not out.exists()


def test_rosenbrock_divergence_is_reported_not_raised(tmp_path, capsys):
    # the sr3 trajectories from (0.5, 0.5) blow up within 50 iterations
    code, _, _ = run_cli(
        ["rosenbrock", "--p", "11", "--r", "3", "--iters", "50", "--t", "0.01",
         "--trials", "2", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    last = (tmp_path / "rosenbrock_p11_r3_start0.5-0.5.csv").read_text().splitlines()[-1]
    assert last == "50,sr3,nan,nan"


def test_rosenbrock_start_overflow_is_reported_not_raised(tmp_path, capsys):
    code, _, _ = run_cli(
        ["rosenbrock", "--start", "1e200,0", "--iters", "3", "--trials", "2",
         "--r", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "rosenbrock_p11_r3_start1e+200-0.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 4
    assert all(line.split(",")[2] == "nan" for line in lines[1:])


@pytest.mark.parametrize("start, shown, why", [
    ("0,1e-310", "(0.0, 1e-310)", "underflows to a binary64 subnormal"),
    ("1.7976931348623157e308,0", "(1.7976931348623157e+308, 0.0)", "overflows"),
])
def test_start_off_the_normal_range_at_p_exits_2(start, shown, why, tmp_path, capsys):
    # the descent rounds the start to precision p first; the spec refuses a
    # start that this rounding would refuse, and names it
    with pytest.raises(SystemExit) as exc:
        main(["rosenbrock", "--start", start, "--iters", "3", "--trials", "1", "--r", "3",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"start point {shown} does not round to precision 11: " in err and why in err
    assert not list(tmp_path.iterdir())


def test_tiny_normal_start_runs(tmp_path, capsys):
    code, _, _ = run_cli(
        ["rosenbrock", "--start", "0,1e-300", "--iters", "3", "--trials", "1",
         "--r", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "rosenbrock_p11_r3_start0-1e-300.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("trials", ["1", "2"])
def test_rosenbrock_start_inf_loss_is_reported_not_raised(trials, tmp_path, capsys):
    # the loss at this start is inf without an OverflowError: every
    # trajectory diverges at the start, and aggregation must not warn
    code, _, _ = run_cli(
        ["rosenbrock", "--start", "1e120,0", "--iters", "3", "--trials", trials,
         "--r", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "rosenbrock_p11_r3_start1e+120-0.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 4
    for line in lines[1:]:
        _, mode, value, stderr = line.split(",")
        # a diverged mode reports no spread, whether it ran once or more
        assert (value, stderr) == ("nan", "nan")


def test_bounds_table_accepts_p53_ideal(tmp_path, capsys):
    code, _, _ = run_cli(
        ["bounds-table", "--p", "53", "--r", "ideal", "--n-grid", "10",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "bounds-table_p53_rideal.csv").exists()


def test_sum_writes_deterministic_csv(tmp_path, capsys):
    args = [
        "sum", "--p", "11", "--r", "3,7", "--n-grid", "10,20",
        "--trials", "4", "--seed", "9", "--out-dir", str(tmp_path),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    path = tmp_path / "sum_p11_r3-7.csv"
    assert str(path) in out
    first = path.read_bytes()
    assert run_cli(args, capsys)[0] == 0
    assert path.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "n_or_k,mode,value,stderr"
    assert len(lines) == 1 + 2 * 3  # two n values, modes rn/sr3/sr7


def test_dot_runs(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "dot", "--p", "11", "--r", "ideal", "--n-grid", "8",
            "--trials", "3", "--seed", "2", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "dot_p11_rideal.csv").exists()


def test_rosenbrock_cli_default_starts(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "rosenbrock", "--p", "11", "--r", "8", "--iters", "5",
            "--trials", "2", "--seed", "1", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "rosenbrock_p11_r8_start0-0.csv").exists()
    assert (tmp_path / "rosenbrock_p11_r8_start0.5-0.5.csv").exists()


def test_rosenbrock_cli_releases_each_start_rows(tmp_path, monkeypatch, capsys):
    # one start's rows are written and dropped before the next start runs
    class Rows(list):
        pass

    run = experiments.run_rosenbrock
    refs, alive = [], []

    def tracked(spec, start):
        alive.append([ref() is not None for ref in refs])
        rows = Rows(run(spec, start))
        refs.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(experiments, "run_rosenbrock", tracked)
    code, _, _ = run_cli(
        [
            "rosenbrock", "--p", "11", "--r", "8", "--iters", "5",
            "--trials", "2", "--seed", "1", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert alive == [[], [False]]


def test_bounds_table_cli(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "bounds-table", "--p", "11", "--lambda", "0.1", "--r", "3,7",
            "--n-grid", "100,1000", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "bounds-table_p11_r3-7.csv").read_text()
    assert "det" in text and "ah_sr7" in text and "bc_sr3" in text


def test_bounds_table_rejects_bad_lambda(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds-table", "--lambda", "1.5"])
    assert exc.value.code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("value = 1.5\np = 2\nr = 4   # representable case\n")
    code, out, _ = run_cli(["round", "--config", str(cfg)], capsys)
    assert code == 0
    assert "q_r       = 0" in out
    # flag wins over the config value
    code, out, _ = run_cli(
        ["round", "--config", str(cfg), "--value", "1.3125", "--r", "1"], capsys
    )
    assert code == 0
    assert "q_r       = 1/2" in out


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["round", "--config", str(cfg), "--value", "1.0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "data, message",
    [
        (b"p = eleven\n", "config key p: "),
        (b"wibble = 3\n", "unknown config key(s): wibble\n"),
        (b"value = 1.5\xff\n", "cannot read config file: 'utf-8' codec"),
        # a blank line and a whole-line comment are skipped, not misread
        (b"# r = 3\n\nvalue 1.5\n", "bad.cfg:3: expected 'key = value'"),
    ],
    ids=["bad-value", "unknown-key", "not-utf-8", "no-equals-sign"],
)
def test_config_file_error_message(data, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    with pytest.raises(SystemExit) as exc:
        main(["round", "--config", str(cfg), "--value", "1.0"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, name, grid, more",
    [
        ([], "bounds-table_p11_r3-7.csv", [10, 20], ""),
        (["--r", "5"], "bounds-table_p11_r5.csv", [10, 20], ""),
        # a grid flag, either one, beats the file's grid; the last one given wins
        (["--n-max", "40"], "bounds-table_p11_r3-7.csv", [10, 20, 40], ""),
        (["--n-grid", "30"], "bounds-table_p11_r3-7.csv", [30], ""),
        (["--n-grid", "10", "--n-max", "40"], "bounds-table_p11_r3-7.csv", [10, 20, 40], ""),
        (["--n-max", "40", "--n-grid", "30"], "bounds-table_p11_r3-7.csv", [30], ""),
        # so does the file's later grid key
        ([], "bounds-table_p11_r3-7.csv", [10, 20, 40], "n_max = 40\n"),
    ],
    ids=["config-beats-default", "flag-beats-config", "n-max-beats-n-grid",
         "n-grid-beats-n-grid", "last-n-max-wins", "last-n-grid-wins",
         "config-last-n-max-wins"],
)
def test_config_list_options_and_dashed_key(flags, name, grid, more, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-grid = 10,20\nr = 3,7\n" + more)
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["bounds-table", "--config", str(cfg), "--out-dir", str(out), *flags], capsys
    )
    assert code == 0
    assert [p.name for p in out.iterdir()] == [name]
    lines = (out / name).read_text().splitlines()[1:]
    assert sorted({int(line.split(",")[0]) for line in lines}) == grid


@pytest.mark.parametrize("command", ["sum", "dot", "rosenbrock", "bounds-table"])
def test_cli_defaults_are_the_spec_defaults(command):
    spec = experiments.ExperimentSpec(kind=command)
    assert _check(command, vars(build_parser().parse_args([command]))) == spec


def test_cli_holds_no_grid_default_and_no_input_file_rule():
    # ExperimentSpec resolves each kind's grid and refuses a grid next to an
    # input file; the CLI only spells flags, and a config file only replaces
    # the defaults of the one parser
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not {"_doubling_grid", "experiments._doubling_grid"} & called
    numbers = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and type(node.value) is int}
    assert numbers <= {0, 1, 2}, "a grid written out in cli.py"
    compared = {node.value for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
                for node in ast.walk(cmp) if isinstance(node, ast.Constant)}
    assert not {"input_file", "n_grid"} & compared
    assert inspect.signature(build_parser).parameters == {}


def test_readme_cli_examples_parse():
    # a flag renamed without its README example fails here; nothing runs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI examples", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("srlab ")]
    assert len(examples) == 5
    for line in examples:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert _check(args.command, vars(args)) is not None, line


def test_readme_names_every_subcommand_in_order():
    # README's srlab.cli row lists the subcommands of the one command table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    row = next(line for line in readme.splitlines() if line.startswith("| `srlab.cli` |"))
    named = re.findall(r"`([\w-]+)`", row.split(" command with ", 1)[1].split(" subcommands", 1)[0])
    assert named == list(build_parser().commands)


@pytest.mark.parametrize("start, name", [
    ("-0.5,0.5", "start-0.5-0.5"),
    ("-1e-3,-2", "start-0.001--2"),
])
def test_negative_start_follows_its_flag(start, name, tmp_path, capsys):
    # argparse alone reads "-0.5,0.5" as a flag; it is the value of --start,
    # the same run as --start=-0.5,0.5
    flags = ["--iters", "3", "--trials", "2", "--r", "3", "--out-dir"]
    code, _, err = run_cli(["rosenbrock", "--start", start, *flags, str(tmp_path / "a")], capsys)
    assert (code, err) == (0, "")
    code, _, _ = run_cli(["rosenbrock", f"--start={start}", *flags, str(tmp_path / "b")], capsys)
    assert code == 0
    csv = f"rosenbrock_p11_r3_{name}.csv"
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


def test_negative_value_follows_its_flag(capsys):
    argv = ["round", "--value", "-1e-300", "--p", "11", "--r", "3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("value     = -1e-300\n")
    assert run_cli(["round", "--value=-1e-300", *argv[3:]], capsys) == (0, out, "")
    # a subnormal has no ulp at p = 2, whatever its sign
    for value in ("-5e-324", "5e-324"):
        code, out, err = run_cli(["round", "--value", value, "--p", "2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: result underflows to a binary64 subnormal\n"


@pytest.mark.parametrize("token, message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("inf", "finite value required, got inf"),
    ("1.7976931348623157e308", "result overflows the binary64 substrate"),
    ("1e-310", "result underflows to a binary64 subnormal"),
])
def test_input_file_value_error_names_file_and_line(token, message, tmp_path, capsys):
    data = tmp_path / "vec.txt"
    data.write_text(f"0.5\n# a comment\n{token}\n")
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sum", "--r", "3", "--trials", "2", "--input-file", str(data), "--out-dir", str(out)],
        capsys,
    )
    assert code == 1
    assert err == f"error: {data}:3: {message}\n"
    assert not out.exists()


def test_p53_says_r_must_be_ideal(capsys):
    message = "p = 53 leaves no random bit, so r must be 'ideal'"
    for argv in (["dot", "--p", "53", "--r", "3"], ["bounds-table", "--p", "53", "--r", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]
    for r in (1, True, 1.0):
        with pytest.raises(ValueError, match=message):
            sr_config(53, r)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("sum", "1 2\n", "expected 1 column(s)"),
        ("dot", "1\n", "expected 2 column(s)"),
        ("sum", "# no values\n\n", "no data"),
    ],
    ids=["sum-two-columns", "dot-one-column", "no-data"],
)
def test_bad_input_file_exits_1(kind, text, message, tmp_path, capsys):
    data = tmp_path / "vec.txt"
    data.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(
        [kind, "--r", "3", "--trials", "2", "--input-file", str(data), "--out-dir", str(out)],
        capsys,
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert not out.exists()
