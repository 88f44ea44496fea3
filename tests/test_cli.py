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


def test_run_override_cap_flag_parses(tmp_path):
    # keep K tiny so the run stays fast; the flag just has to thread through
    cfg = _write_cfg(tmp_path, "ue_sweep = 2\nalgorithms = optimal\ntrials = 1\n")
    code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "y.csv"),
                     "--override-cap"])
    assert code == 0


def test_run_missing_config_path(tmp_path, capsys):
    code = cli_main(["run", "--config", str(tmp_path / "nope.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_oracle_check(capsys):
    code = cli_main(["oracle-check", "--k", "4", "--i", "2", "--trials", "3",
                     "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    assert "3/3 pass" in captured.out


def test_oracle_check_rejects_k_outside_cap(capsys):
    for k in (15, -3):
        code = cli_main(["oracle-check", "--k", str(k), "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: --k must be between 1 and the exhaustive-search "
                                f"cap of 14 UEs, got {k}\n")


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
