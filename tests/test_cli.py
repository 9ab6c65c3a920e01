import pytest

from srlab.cli import main


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["round", "--value", "1.0", "--nope", "3"])
    assert exc.value.code == 2


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
        ["round", "--value", "nan"],
        ["round", "--value", "inf"],
        ["round", "--value", "1e400", "--p", "8"],
    ],
    ids=" ".join,
)
def test_bad_experiment_flags_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


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
