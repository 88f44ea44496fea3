"""Command line entry points."""

import os

from dcalloc.cli import build_parser, cli_main


def _write_cfg(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


def test_run_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "ue_sweep = 2,3\nalgorithms = optimal,proposed\ntrials = 2\n")
    out = str(tmp_path / "res.csv")
    code = cli_main(["run", "--config", cfg, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert os.path.exists(out)
    assert os.path.exists(out + ".summary.csv")
    assert out in captured.out
    assert "mean_ratio=" in captured.out


def test_run_rejects_cap_violation(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "ue_sweep = 15\nalgorithms = optimal\ntrials = 1\n")
    code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert "cap" in captured.err


def test_run_override_cap_config_key(tmp_path, capsys):
    """The exhaustive-search cap is fixed: override_cap is an unknown key."""
    cfg = _write_cfg(tmp_path, "ue_sweep = 15\nalgorithms = proposed,optimal\ntrials = 1\n"
                               "override_cap = true\n")
    out = tmp_path / "y.csv"
    assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"{cfg}:4: unknown key 'override_cap'" in capsys.readouterr().err
    assert not out.exists()


def test_run_has_no_override_cap_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "ue_sweep = 2\nalgorithms = optimal\ntrials = 1\n")
    code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "y.csv"),
                     "--override-cap"])
    assert code == 2
    assert "--override-cap" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "y.csv")


def test_run_missing_config_path(tmp_path, capsys):
    code = cli_main(["run", "--config", str(tmp_path / "nope.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_run_config_validation_error_names_file(tmp_path, capsys):
    """Values that convert but fail validation still name the config file."""
    for extra, msg in (("algorithms = proposed\nbw_macro_hz = inf\n", "bw_macro_hz"),
                       ("algorithms = bogus\n", "bogus")):
        cfg = _write_cfg(tmp_path, "ue_sweep = 2\n" + extra)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "z.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}: ")
        assert msg in err
    assert not os.path.exists(tmp_path / "z.csv")


def test_oracle_check(capsys):
    code = cli_main(["oracle-check", "--k", "4", "--i", "2", "--trials", "3",
                     "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    assert "3/3 pass" in captured.out


def test_oracle_check_at_benchmark_shape(capsys):
    """K=10 on 16 SBSs, the shape the benchmark's oracle workload runs:
    some SBSs serve nobody."""
    code = cli_main(["oracle-check", "--k", "10", "--i", "16", "--trials", "5",
                     "--seed", "7"])
    assert code == 0
    assert "5/5 pass" in capsys.readouterr().out


def test_oracle_check_rejects_k_outside_cap(capsys):
    for k in (15, -3):
        code = cli_main(["oracle-check", "--k", str(k), "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: --k must be between 1 and the exhaustive-search "
                                f"cap of 14 UEs, got {k}\n")


def test_oracle_check_rejects_i_below_one(capsys):
    """--i is checked as the flag the user typed, not as ScenarioParams.num_sbs."""
    for i in (0, -2):
        code = cli_main(["oracle-check", "--k", "3", "--i", str(i)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --i must be >= 1, got {i}\n"


def test_oracle_check_rejects_trials_below_one(capsys):
    for trials in (0, -2):
        code = cli_main(["oracle-check", "--k", "3", "--trials", str(trials)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --trials must be >= 1, got {trials}\n"


def test_run_and_sweep_reject_flags_by_name(tmp_path, capsys):
    """run and sweep check their flags before building a config, so the
    error names the flag the user typed, not the config field."""
    cfg = _write_cfg(tmp_path, "ue_sweep = 2\nalgorithms = proposed\ntrials = 1\n")
    out = str(tmp_path / "r.csv")
    prefix = str(tmp_path / "dc")
    cases = [(["run", "--config", cfg, "--out", out, "--threads", "0"],
              "--threads must be >= 1, got 0"),
             (["sweep", "--out", prefix, "--threads", "0"], "--threads must be >= 1, got 0"),
             (["sweep", "--out", prefix, "--trials", "0"], "--trials must be >= 1, got 0"),
             (["sweep", "--out", prefix, "--master-seed", "-1"],
              "--master-seed must be between 0 and 2**64 - 1, got -1"),
             (["sweep", "--out", prefix, "--master-seed", str(2 ** 64)],
              f"--master-seed must be between 0 and 2**64 - 1, got {2 ** 64}")]
    for argv, msg in cases:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err == f"error: {msg}\n"
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_oracle_check_rejects_seed_outside_64_bits(capsys):
    for seed in ("-1", str(2 ** 64)):
        code = cli_main(["oracle-check", "--k", "3", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --seed must be between 0 and 2**64 - 1, got {seed}\n"
    assert cli_main(["oracle-check", "--k", "3", "--seed", str(2 ** 64 - 1)]) == 0
    assert "1/1 pass" in capsys.readouterr().out


def test_sweep_writes_four_files(tmp_path, capsys):
    prefix = str(tmp_path / "dc")
    code = cli_main(["sweep", "--out", prefix, "--trials", "1"])
    capsys.readouterr()
    assert code == 0
    for name in ("dc_ratio.csv", "dc_ratio.csv.summary.csv",
                 "dc_capacity.csv", "dc_capacity.csv.summary.csv"):
        assert os.path.exists(str(tmp_path / name))


def test_usage_errors_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["run", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "oracle-check" in captured.out


def test_parser_program_name():
    assert build_parser().prog == "dcalloc"
