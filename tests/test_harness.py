"""Monte Carlo harness: seeding, configs, experiment runs, CSV round-trips."""

import inspect
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import dcalloc.harness as harness
import dcalloc.kernels as kernels
import dcalloc.solvers as solvers
from dcalloc import (ALGORITHM_ORDER, DEFAULT_MASTER_SEED, ExperimentConfig,
                     ScenarioParams, TrialRecord, analytic_brute_count,
                     capacity_config, emit_csv, load_config, load_records,
                     make_instance, ratio_config, run_experiment, summarize,
                     trial_seed)


# the five algorithms of the golden sweeps; an algorithm added to
# ALGORITHM_ORDER leaves every test that names these unchanged
FIVE = ("optimal", "proposed", "3c_only", "1a_only", "stronger")


def _tiny_config(**overrides):
    kwargs = dict(scenario=ScenarioParams(), ue_sweep=(1, 2),
                  algorithms=FIVE, trials=2,
                  master_seed=99, output_path="out.csv")
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# --- seeding ---------------------------------------------------------------

def test_trial_seed_deterministic_and_positional():
    a = trial_seed(42, 7, 3)
    assert a == trial_seed(42, 7, 3)
    assert a != trial_seed(42, 7, 4)
    assert a != trial_seed(42, 8, 3)
    assert a != trial_seed(43, 7, 3)
    assert 0 <= a < 2 ** 64


def test_trial_seed_no_collisions_in_sample():
    seeds = {trial_seed(DEFAULT_MASTER_SEED, k, t)
             for k in range(1, 21) for t in range(200)}
    assert len(seeds) == 20 * 200


def test_analytic_brute_count():
    assert analytic_brute_count(1) == 3
    assert analytic_brute_count(4) == 4 * 81
    assert analytic_brute_count(17) == 17 * 3 ** 17
    assert analytic_brute_count(np.int64(40)) == 40 * 3 ** 40  # no int64 wrap
    for k_ues, msg in ((-1, ">= 1"), (0, ">= 1"), (2.5, "an integer"), (4.0, "an integer"),
                       (True, "an integer")):
        with pytest.raises(ValueError, match=f"k_ues must be {msg}"):
            analytic_brute_count(k_ues)


def test_one_drop_validates_its_params_once(monkeypatch):
    """run_trial's replace() builds and checks the drop's params; nothing
    downstream checks them again."""
    cfg = _tiny_config(algorithms=("stronger",), master_seed=1)
    calls = []
    original = ScenarioParams.validate
    monkeypatch.setattr(ScenarioParams, "validate",
                        lambda self: calls.append(self) or original(self))
    harness.run_trial((cfg, 3, 0))
    assert len(calls) == 1
    assert (calls[0].num_ue, calls[0].seed) == (3, trial_seed(1, 3, 0))


# --- config object ---------------------------------------------------------

def test_config_normalizes_algorithm_order():
    cfg = _tiny_config(algorithms=("stronger", "optimal"))
    assert cfg.algorithms == ("optimal", "stronger")


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown"):
        _tiny_config(algorithms=("optimal", "dijkstra"))


@pytest.mark.parametrize("overrides,msg", [
    (dict(ue_sweep=()), "empty"),
    (dict(ue_sweep=(3, 3)), "unique"),
    (dict(ue_sweep=(0,)), ">= 1"),
    (dict(trials=0), "trials"),
    (dict(master_seed=-1), "64 bits"),
    (dict(ue_sweep=(4, 15)), "cap"),
    (dict(ue_sweep=(4.7,)), "ue_sweep"),
    (dict(trials=2.5), "trials"),
    (dict(trials=True), "trials"),
    (dict(master_seed=1.5), "master_seed"),
    (dict(algorithms=("proposed", "proposed", "optimal")), "algorithms entries must be unique"),
    (dict(scenario=None), "scenario must be a ScenarioParams, got None"),
    (dict(scenario=ScenarioParams), "scenario must be a ScenarioParams"),
])
def test_config_validate_rejects(overrides, msg):
    with pytest.raises(ValueError, match=msg):
        _tiny_config(**overrides)


def test_config_without_optimal_allows_large_k():
    """Without the exhaustive solver the cap never applies."""
    cfg = _tiny_config(ue_sweep=(20,), algorithms=("proposed",))
    cfg.validate()


def test_ratio_and_capacity_config_shapes():
    rc = ratio_config("a.csv", trials=3)
    assert rc.ue_sweep == tuple(range(4, 13))
    assert rc.algorithms == FIVE
    assert rc.trials == 3
    cc = capacity_config("b.csv")
    assert cc.ue_sweep == tuple(range(10, 21))
    assert "optimal" not in cc.algorithms
    cc.validate()  # no cap complaint despite K=20


def test_ratio_config_names_its_algorithms(monkeypatch):
    """The ratio sweep lists its five algorithms by name, so a solver added
    to the table does not grow the golden ratio CSV."""
    monkeypatch.setattr(harness, "ALGORITHM_ORDER", ALGORITHM_ORDER + ("exact",))
    assert ratio_config("a.csv").algorithms == FIVE


# --- experiment runs -------------------------------------------------------

def test_run_experiment_small_end_to_end():
    cfg = _tiny_config()
    records, summary = run_experiment(cfg)
    assert [(r.k_ues, r.trial) for r in records] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    for rec in records:
        assert set(rec.sum_rates) == set(FIVE)
        assert rec.op_counts["optimal"] == analytic_brute_count(rec.k_ues)
        for algo in ("proposed", "3c_only", "1a_only", "stronger"):
            assert rec.sum_rates[algo] <= rec.sum_rates["optimal"]
        assert rec.ratio == rec.sum_rates["proposed"] / rec.sum_rates["optimal"]
        assert rec.seed == trial_seed(99, rec.k_ues, rec.trial)
    assert summary["algorithms"] == FIVE
    assert [row["k_ues"] for row in summary["rows"]] == [1, 2]


def test_run_experiment_threads_match_serial():
    """16 cells, so each of the pool's chunks holds several."""
    cfg = _tiny_config(ue_sweep=(2, 3), trials=8)
    serial, _ = run_experiment(cfg, threads=1)
    parallel, _ = run_experiment(cfg, threads=2)
    assert serial == parallel


@pytest.mark.parametrize("threads,msg", [(1.5, "an integer"), (2.0, "an integer"),
                                         (True, "an integer"), ("2", "an integer"), (0, ">= 1")])
def test_run_experiment_refuses_bad_threads(threads, msg, monkeypatch):
    """A thread count that is not an integer, a float or a bool included, or
    is below 1 is refused before any cell runs."""
    monkeypatch.setattr(harness, "run_trial", None)
    with pytest.raises(ValueError, match=f"^threads must be {msg}"):
        run_experiment(_tiny_config(), threads=threads)


def test_run_experiment_starts_no_more_workers_than_cells(monkeypatch):
    """threads=64 on 3 cells opens a pool of 3 workers, and on one cell no
    pool at all. A stub pool records its size and maps serially, so the test
    starts no process; the records equal a serial run's."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            opened.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = _tiny_config(ue_sweep=(1, 2, 3), trials=1)
    assert run_experiment(cfg, threads=64) == run_experiment(cfg)
    assert opened == [3, 1]
    run_experiment(_tiny_config(ue_sweep=(2,), trials=1), threads=64)
    assert opened == [3, 1]


def test_zero_optimum_has_no_ratio():
    """At -300 dBm every SNR is below 2**-53, so every log term and the
    optimum are 0.0: the trial records no ratio, and the summary leaves it
    out of the mean and the std."""
    scenario = ScenarioParams(p_macro_dbm=-300.0, p_small_dbm=-300.0)
    cfg = _tiny_config(scenario=scenario, ue_sweep=(4,), trials=1,
                       algorithms=("optimal", "proposed"))
    rec = harness.run_trial((cfg, 4, 0))
    assert rec.sum_rates == {"optimal": 0.0, "proposed": 0.0}
    assert rec.ratio is None
    row = summarize(cfg.algorithms, cfg.ue_sweep, [rec])["rows"][0]
    assert row["mean_ratio_proposed_optimal"] is None
    assert row["std_ratio_proposed_optimal"] is None


def test_run_experiment_without_optimal_has_no_ratio():
    cfg = _tiny_config(algorithms=("proposed", "1a_only"))
    records, summary = run_experiment(cfg)
    assert all(r.ratio is None for r in records)
    assert all(row["mean_ratio_proposed_optimal"] is None for row in summary["rows"])


def test_refused_channel_names_its_trial():
    """A scenario whose drops make_instance refuses, here an MBS power of
    1e-323 W that every pathloss takes to 0.0, is re-raised as RuntimeError
    naming the cell's (K, trial, seed), chained to the table's refusal."""
    cfg = _tiny_config(scenario=ScenarioParams(p_macro_dbm=-3200.0), ue_sweep=(4,))
    witness = f"make_instance failed at K=4, trial=0, seed={trial_seed(99, 4, 0)}: rx_macro_w"
    with pytest.raises(RuntimeError, match=witness) as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, ValueError)


def test_overflowing_rate_terms_are_refused_naming_the_trial():
    """A table whose 2K rate terms bw * log2(1 + x) could sum past the
    largest double, here 1e308 Hz bandwidths over a -3200 dBm/Hz noise floor,
    is refused when built, naming both bandwidths, before a solver sums a
    NaN; in a sweep the refusal names the cell's (K, trial, seed). At
    1e300 Hz the same drop is accepted, and evaluate() and objective_chunk
    agree on the greedy's allocation."""
    scenario = ScenarioParams(bw_macro_hz=1e308, bw_small_hz=1e308, n_macro_dbm_hz=-3200,
                              n_small_dbm_hz=-3200, num_ue=8, seed=3)
    refusal = r"must be finite on both tiers, got bw_macro_hz=1e\+308 and bw_small_hz=1e\+308"
    with pytest.raises(ValueError, match=refusal):
        make_instance(scenario)
    cfg = _tiny_config(scenario=scenario, ue_sweep=(8,), trials=1)
    witness = f"make_instance failed at K=8, trial=0, seed={trial_seed(99, 8, 0)}: .*{refusal}"
    with pytest.raises(RuntimeError, match=witness) as info:
        harness.run_trial((cfg, 8, 0))
    assert isinstance(info.value.__cause__, ValueError)

    _, table = make_instance(replace(scenario, bw_macro_hz=1e300, bw_small_hz=1e300))
    greedy = solvers.solve_proposed(table)
    assert math.isfinite(greedy.sum_rate)
    assert math.isfinite(solvers.solve_brute_force(table).sum_rate)
    assert greedy.sum_rate == kernels.objective_chunk(greedy.alloc.digits[None], table)[0]


def test_solver_error_names_its_trial(monkeypatch):
    """A solver that raises inside a sweep is re-raised as RuntimeError with
    the (K, trial, seed) that replays it and the algorithm, chained to the
    original error. The seed in the message alone rebuilds the failing
    table bit for bit through make_instance."""
    cfg = _tiny_config(ue_sweep=(2, 3), trials=2)
    solve = solvers.solve_proposed
    tables = []

    def broken(table):
        # threads=1 runs the cells in order, so the fourth is K=3, trial 1
        tables.append(table)
        if len(tables) == 4:
            raise ZeroDivisionError("injected")
        return solve(table)

    monkeypatch.setattr(solvers, "solve_proposed", broken)
    witness = f"proposed failed at K=3, trial=1, seed={trial_seed(99, 3, 1)}"
    with pytest.raises(RuntimeError, match=witness) as info:
        run_experiment(cfg, threads=1)
    assert isinstance(info.value.__cause__, ZeroDivisionError)

    seed = int(re.search(r"seed=(\d+)", str(info.value)).group(1))
    _, replayed = make_instance(replace(cfg.scenario, num_ue=3, seed=seed))
    failed = tables[-1]
    for name in ("rx_macro_w", "rx_small_w", "interference_w", "snr_macro", "sinr_small",
                 "assoc_sbs", "log_macro", "log_small"):
        got, want = getattr(replayed, name), getattr(failed, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_solver_dispatch_is_traceable(monkeypatch):
    """run_trial looks each solver up in dcalloc.solvers at call time, so a
    wrapper patched onto that module, as the benchmark's tracer patches its
    timing and counting wrappers, sees every call."""
    assert ALGORITHM_ORDER == tuple(harness._SOLVERS)
    for name in harness._SOLVERS.values():
        assert name in solvers.__all__
        assert inspect.isfunction(getattr(solvers, name)), name
    solve = solvers.solve_stronger
    calls = []
    monkeypatch.setattr(solvers, "solve_stronger",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    run_experiment(_tiny_config(ue_sweep=(3,), trials=2))
    assert len(calls) == 2


# --- summarize arithmetic --------------------------------------------------

def test_summarize_matches_hand_arithmetic():
    recs = [
        TrialRecord(k_ues=2, trial=0, seed=5, sum_rates={"proposed": 10.0},
                    op_counts={"proposed": 8}, ratio=0.5),
        TrialRecord(k_ues=2, trial=1, seed=6, sum_rates={"proposed": 30.0},
                    op_counts={"proposed": 32}, ratio=0.9),
    ]
    summary = summarize(("proposed",), (2,), recs)
    row = summary["rows"][0]
    assert row["trials"] == 2
    assert row["mean_sumrate_proposed"] == pytest.approx(20.0, rel=1e-15)
    assert row["geomean_opcount_proposed"] == pytest.approx(16.0, rel=1e-12)
    assert row["mean_ratio_proposed_optimal"] == pytest.approx(0.7, rel=1e-15)
    assert row["std_ratio_proposed_optimal"] == pytest.approx(
        np.std([0.5, 0.9], ddof=1), rel=1e-15)
    assert row["optimal_opcount_analytic"] == 2 * 9


def test_summarize_single_ratio_has_zero_std():
    recs = [TrialRecord(k_ues=1, trial=0, seed=1, sum_rates={"proposed": 1.0},
                        op_counts={"proposed": 2}, ratio=0.8)]
    row = summarize(("proposed",), (1,), recs)["rows"][0]
    assert row["std_ratio_proposed_optimal"] == 0.0


# --- CSV round-trips -------------------------------------------------------

def test_emit_csv_header_and_roundtrip(tmp_path):
    cfg = _tiny_config(ue_sweep=(3,), trials=4)
    records, summary = run_experiment(cfg)
    path = str(tmp_path / "trial.csv")
    emit_csv(records, summary, path)

    with open(path) as f:
        header = f.readline().rstrip("\n")
    expected = ("k_ues,trial,seed,"
                "optimal_sumrate,optimal_opcount,proposed_sumrate,proposed_opcount,"
                "3c_only_sumrate,3c_only_opcount,1a_only_sumrate,1a_only_opcount,"
                "stronger_sumrate,stronger_opcount,ratio_proposed_optimal")
    assert header == expected

    loaded, algorithms = load_records(path)
    assert algorithms == FIVE
    assert loaded == records  # floats survive the text round-trip bit for bit


def test_emit_csv_empty_ratio_column_without_optimal(tmp_path):
    cfg = _tiny_config(algorithms=("proposed", "3c_only"), ue_sweep=(2,))
    records, summary = run_experiment(cfg)
    path = str(tmp_path / "noopt.csv")
    emit_csv(records, summary, path)
    lines = open(path).read().splitlines()
    assert lines[0].endswith(",ratio_proposed_optimal")
    assert all(line.endswith(",") for line in lines[1:])
    loaded, algorithms = load_records(path)
    assert algorithms == ("proposed", "3c_only")
    assert all(r.ratio is None for r in loaded)


def test_emit_csv_empty_records(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], {"algorithms": ("proposed",), "rows": []}, path)
    assert open(path).read().count("\n") == 1
    assert open(path + ".summary.csv").read().count("\n") == 1


@pytest.mark.parametrize("body,msg", [
    ("", r"trials\.csv: not a trial CSV, missing columns \['k_ues'"),
    ("a,b\n1,2\n", r"trials\.csv: not a trial CSV, missing columns \['k_ues'"),
    ("k_ues,trial,seed,proposed_sumrate,ratio_proposed_optimal\n2,0,5,1.0,\n",
     r"trials\.csv: not a trial CSV, missing columns \['proposed_opcount'\]"),
    ("k_ues,trial,seed,proposed_sumrate,proposed_opcount,ratio_proposed_optimal\n2,0,5\n",
     r"trials\.csv:2: 3 cells, the header has 6"),
    ("k_ues,trial,seed,proposed_sumrate,proposed_opcount,ratio_proposed_optimal\n"
     "2,0,5,1.0,8,\n2,1,x,1.0,8,\n", r"trials\.csv:3: invalid literal for int\(\)"),
])
def test_load_records_refuses_malformed_csv(tmp_path, body, msg):
    """An empty file, one without the trial columns, a short row and a cell
    that does not convert each raise ValueError naming the file, not
    StopIteration, KeyError or a ValueError without a path."""
    path = tmp_path / "trials.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=msg):
        load_records(str(path))


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = _tiny_config(ue_sweep=(2,), trials=3)
    paths = []
    for tag in ("a", "b"):
        records, summary = run_experiment(cfg)
        path = str(tmp_path / f"{tag}.csv")
        emit_csv(records, summary, path)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    assert (open(paths[0] + ".summary.csv", "rb").read()
            == open(paths[1] + ".summary.csv", "rb").read())


def test_summary_csv_contains_analytic_counts(tmp_path):
    cfg = _tiny_config(ue_sweep=(2,), trials=2, algorithms=("proposed",))
    records, summary = run_experiment(cfg)
    path = str(tmp_path / "s.csv")
    emit_csv(records, summary, path)
    lines = open(path + ".summary.csv").read().splitlines()
    assert lines[0] == ("k_ues,trials,mean_sumrate_proposed,geomean_opcount_proposed,"
                        "mean_ratio_proposed_optimal,std_ratio_proposed_optimal,"
                        "optimal_opcount_analytic")
    assert lines[1].split(",")[-1] == str(2 * 9)


# --- config files ----------------------------------------------------------

def test_load_bundled_default_config():
    here = os.path.dirname(__file__)
    cfg = load_config(os.path.join(here, "..", "configs", "default.cfg"))
    assert cfg.ue_sweep == tuple(range(4, 13))
    assert cfg.algorithms == FIVE
    assert cfg.trials == 200
    assert cfg.master_seed == DEFAULT_MASTER_SEED
    assert cfg.output_path == "dcpa_results.csv"
    assert cfg.scenario.num_sbs == 4
    assert cfg.scenario.area_side_m == 500.0


def _write_cfg(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


def test_load_config_minimal_with_comments(tmp_path):
    path = _write_cfg(tmp_path, """
# comment line
ue_sweep = 2, 3   # trailing comment
algorithms = proposed
""")
    cfg = load_config(path)
    assert cfg.ue_sweep == (2, 3)
    assert cfg.algorithms == ("proposed",)
    assert cfg.trials == 200          # default
    assert cfg.master_seed == DEFAULT_MASTER_SEED
    assert cfg.output_path == "dcpa_results.csv"


@pytest.mark.parametrize("body,msg", [
    ("ue_sweep = 2\nalgorithms = proposed\nwidget = 9\n", "unknown key"),
    ("algorithms = proposed\n", "ue_sweep"),
    ("ue_sweep = 2\nue_sweep = 3\nalgorithms = proposed\n", "duplicate"),
    ("ue_sweep = 2\nalgorithms = proposed\njust a line\n", "key = value"),
    ("ue_sweep = 2\nalgorithms = proposed\ntrials = abc\n", r"exp\.cfg:3: trials: "),
    ("ue_sweep = 4,x\nalgorithms = proposed\n", r"exp\.cfg:1: ue_sweep: "),
    ("ue_sweep = 2\nalgorithms = proposed\nbw_macro_hz = inf\n", "bw_macro_hz"),
])
def test_load_config_rejects(tmp_path, body, msg):
    path = _write_cfg(tmp_path, body)
    with pytest.raises(ValueError, match=msg):
        load_config(path)


def test_load_config_reports_line_numbers(tmp_path):
    path = _write_cfg(tmp_path, "ue_sweep = 2\nalgorithms = proposed\nbroken\n")
    with pytest.raises(ValueError, match=":3:"):
        load_config(path)
