"""Seeded Monte Carlo experiment driver with CSV emission.

A sweep runs every enabled algorithm on freshly drawn instances for each
(K, trial) cell. Child seeds are a pure function of (master_seed, K, trial),
so trials can run in any order, or in parallel, without changing a single
record. CSV bodies carry no timestamps and print floats in their shortest
round-trip digits, making reruns byte-identical and parse-back lossless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import solvers
from .topology import ScenarioParams, _integer, make_instance, make_instances

__all__ = [
    "ALGORITHM_ORDER",
    "DEFAULT_MASTER_SEED",
    "ExperimentConfig",
    "TrialRecord",
    "trial_seed",
    "analytic_brute_count",
    "run_trial",
    "run_experiment",
    "summarize",
    "emit_csv",
    "load_records",
    "load_config",
    "ratio_config",
    "capacity_config",
]

# algorithm -> its solver's name in dcalloc.solvers, looked up at each call
_SOLVERS = {"optimal": "solve_brute_force", "proposed": "solve_proposed",
            "3c_only": "solve_3c_only", "1a_only": "solve_1a_only",
            "stronger": "solve_stronger"}
ALGORITHM_ORDER = tuple(_SOLVERS)

DEFAULT_MASTER_SEED = 20240816

# most trials in one run, whose arrays hold trials x K x (1 + I) entries
_MAX_RUN = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """`trials` drops of `scenario` per K in `ue_sweep`, each solved by every
    algorithm in `algorithms` (put in ALGORITHM_ORDER). An instance checks
    itself when built and is frozen, so every instance in hand is valid."""

    scenario: ScenarioParams
    ue_sweep: tuple
    algorithms: tuple
    trials: int = 200
    master_seed: int = DEFAULT_MASTER_SEED
    output_path: str = "dcpa_results.csv"

    def __post_init__(self):
        for name, value in (("ue_sweep", self.ue_sweep), ("algorithms", self.algorithms)):
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise ValueError(f"{name} must be a sequence, got {value!r}")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_ORDER]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithms entries must be unique")
        object.__setattr__(self, "algorithms",
                           tuple(a for a in ALGORITHM_ORDER if a in self.algorithms))
        object.__setattr__(self, "ue_sweep",
                           tuple(_integer("ue_sweep entry", k) for k in self.ue_sweep))
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.scenario, ScenarioParams):
            raise ValueError(f"scenario must be a ScenarioParams, got {self.scenario!r}")
        if not self.ue_sweep:
            raise ValueError("ue_sweep must not be empty")
        if any(k < 1 for k in self.ue_sweep):
            raise ValueError("ue_sweep entries must be >= 1")
        if len(set(self.ue_sweep)) != len(self.ue_sweep):
            raise ValueError("ue_sweep entries must be unique")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        if _integer("trials", self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= _integer("master_seed", self.master_seed) < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if "optimal" in self.algorithms and max(self.ue_sweep) > solvers.DEFAULT_BRUTE_CAP:
            raise ValueError(
                f"ue_sweep reaches K={max(self.ue_sweep)} with the exhaustive solver "
                f"enabled; the cap is {solvers.DEFAULT_BRUTE_CAP}")


@dataclass
class TrialRecord:
    """One (K, trial) cell: k_ues, trial and its seed, then per algorithm
    its sum-rate (sum_rates) and op count (op_counts). ratio is proposed /
    optimal, or None when either algorithm did not run or the optimum is
    0.0."""

    k_ues: int
    trial: int
    seed: int
    sum_rates: dict = field(default_factory=dict)
    op_counts: dict = field(default_factory=dict)
    ratio: float | None = None


def trial_seed(master_seed: int, k_ues: int, trial: int) -> int:
    """Child seed for one (K, trial) cell; positional, not sequential."""
    seq = np.random.SeedSequence([master_seed, k_ues, trial])
    return int(seq.generate_state(1, np.uint64)[0])


def analytic_brute_count(k_ues: int) -> int:
    """Exhaustive-search rate-calculation count in closed form, K * 3**K,
    for an integer K >= 1."""
    k_ues = _integer("k_ues", k_ues)
    if k_ues < 1:
        raise ValueError(f"k_ues must be >= 1, got {k_ues}")
    return k_ues * 3 ** k_ues


def run_trial(task, drop=None) -> TrialRecord:
    """One (K, trial) cell from the task (cfg, K, trial); module-level and
    tuple-argumented so process pools can ship it around. Alone it derives
    its seed and builds its table through make_instance, a one-cell replay.
    In a run, drop is (seed, instances): the cell's seed and the run's
    make_instances iterator, whose next item is this cell's drop. Each
    solver is looked up in dcalloc.solvers at call time, so a function
    patched onto that module is the one that runs. An error building the
    table or solving is re-raised as RuntimeError naming the cell's (K,
    trial, seed), which replays it through make_instance, and the failing
    step."""
    cfg, k_ues, trial = task
    seed, instances = drop or (trial_seed(cfg.master_seed, k_ues, trial), None)
    rec = TrialRecord(k_ues=k_ues, trial=trial, seed=seed)
    step = "make_instance"
    try:
        if instances is None:
            _, table = make_instance(replace(cfg.scenario, num_ue=k_ues, seed=seed))
        else:
            _, table = next(instances)
        for step in cfg.algorithms:
            res = getattr(solvers, _SOLVERS[step])(table)
            rec.sum_rates[step], rec.op_counts[step] = float(res.sum_rate), res.op_count
    except Exception as exc:
        raise RuntimeError(f"{step} failed at K={k_ues}, trial={trial}, "
                           f"seed={seed}: {exc}") from exc
    # an optimum of 0.0, where every log term underflows, gives no ratio
    if rec.sum_rates.get("optimal") and "proposed" in rec.sum_rates:
        rec.ratio = rec.sum_rates["proposed"] / rec.sum_rates["optimal"]
    return rec


def _run(task) -> list:
    """The records of the run (cfg, K, trials), trials a range of one K's
    trials: one make_instances of the scenario at K and the trials' seeds
    builds their drops, which each cell's run_trial takes in turn."""
    cfg, k_ues, trials = task
    seeds = [trial_seed(cfg.master_seed, k_ues, trial) for trial in trials]
    instances = make_instances(replace(cfg.scenario, num_ue=k_ues), seeds)
    return [run_trial((cfg, k_ues, trial), (seed, instances))
            for trial, seed in zip(trials, seeds)]


def run_experiment(cfg: ExperimentConfig, threads: int = 1):
    """All (K, trial) cells of a config; returns (records, summary).

    Each K's trials go in runs of consecutive trials, whose drops are built
    together. Records are ordered by (K position in the sweep, trial) no
    matter how many workers run them.
    """
    threads = _integer("threads", threads)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cells = len(cfg.ue_sweep) * cfg.trials
    # the pool starts every worker at once, so no more than there are cells
    workers = min(threads, cells)
    # about four runs per worker, as one cell per task costs more to ship
    # than a small cell takes to run; a cap keeps a run's arrays small
    length = min(-(-cells // (4 * workers)), _MAX_RUN)
    runs = [(cfg, k, range(start, min(start + length, cfg.trials)))
            for k in cfg.ue_sweep for start in range(0, cfg.trials, length)]
    if workers > 1:
        # the pool machinery loads only here: no serial run needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [rec for recs in pool.map(_run, runs, chunksize=1) for rec in recs]
    else:
        records = [rec for run in runs for rec in _run(run)]
    return records, summarize(cfg.algorithms, cfg.ue_sweep, records)


def summarize(algorithms, ue_sweep, records) -> dict:
    """Per-K aggregates: mean sum-rates, geometric-mean op counts, mean and
    sample-std of the proposed/optimal ratio, and the analytic exhaustive
    count for comparison at any K. Per K, the sum-rates and the logs of the
    op counts are averaged with one row mean each over an (algorithm x
    trial) array, which sums each row as np.mean sums a 1-D list."""
    columns = _summary_columns(algorithms)
    rows = []
    for k in ue_sweep:
        recs = [r for r in records if r.k_ues == k]
        mean_rates = mean_logs = [None] * len(algorithms)
        if recs:
            mean_rates = np.array([[r.sum_rates[algo] for r in recs]
                                   for algo in algorithms]).mean(axis=1).tolist()
            mean_logs = np.array([[math.log(r.op_counts[algo]) for r in recs]
                                  for algo in algorithms]).mean(axis=1).tolist()
        ratios = [r.ratio for r in recs if r.ratio is not None]
        rows.append(dict(zip(columns, [
            k, len(recs), *mean_rates,
            *(None if log is None else math.exp(log) for log in mean_logs),
            float(np.mean(ratios)) if ratios else None,
            float(np.std(ratios, ddof=1)) if len(ratios) > 1 else (0.0 if ratios else None),
            analytic_brute_count(k)])))
    return {"algorithms": tuple(algorithms), "rows": rows}


def _trial_columns(algorithms) -> list:
    """The trial CSV's header, which load_records requires."""
    return ["k_ues", "trial", "seed",
            *(f"{algo}_{c}" for algo in algorithms for c in ("sumrate", "opcount")),
            "ratio_proposed_optimal"]


def _summary_columns(algorithms) -> list:
    """The summary CSV's header and the keys of each summarize row."""
    return ["k_ues", "trials", *(f"mean_sumrate_{algo}" for algo in algorithms),
            *(f"geomean_opcount_{algo}" for algo in algorithms), "mean_ratio_proposed_optimal",
            "std_ratio_proposed_optimal", "optimal_opcount_analytic"]


def emit_csv(records, summary, path: str) -> None:
    """Trial CSV at `path` plus per-K aggregates at `<path>.summary.csv`.
    csv.writer writes None as an empty cell and a Python or NumPy float in
    its shortest round-trip digits."""
    algorithms = summary["algorithms"]
    with open(path, "w", newline="") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(_trial_columns(algorithms))
        for rec in records:
            row = [rec.k_ues, rec.trial, rec.seed]
            for algo in algorithms:
                row += [rec.sum_rates[algo], rec.op_counts[algo]]
            row.append(rec.ratio)
            wr.writerow(row)

    with open(path + ".summary.csv", "w", newline="") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(_summary_columns(algorithms))
        for row in summary["rows"]:
            wr.writerow(row.values())


def load_records(path: str):
    """Parse a trial CSV back into TrialRecords; floats round-trip exactly.
    A file without emit_csv's columns, an empty one included, a row of the
    wrong length or a cell that does not convert raises ValueError naming
    the file, and the line for a bad row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        algorithms = tuple(c[:-len("_sumrate")] for c in header if c.endswith("_sumrate"))
        missing = [c for c in _trial_columns(algorithms) if c not in header]
        if missing:
            raise ValueError(f"{path}: not a trial CSV, missing columns {missing}")
        records = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, the header has {len(header)}")
                cells = dict(zip(header, row))
                rec = TrialRecord(k_ues=int(cells["k_ues"]), trial=int(cells["trial"]),
                                  seed=int(cells["seed"]))
                for algo in algorithms:
                    rec.sum_rates[algo] = float(cells[f"{algo}_sumrate"])
                    rec.op_counts[algo] = int(cells[f"{algo}_opcount"])
                ratio = cells["ratio_proposed_optimal"]
                rec.ratio = float(ratio) if ratio else None
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            records.append(rec)
    return records, algorithms


_REQUIRED_KEYS = ("ue_sweep", "algorithms")

# key -> converter from the value text. The scenario keys are ScenarioParams'
# input fields, typed by their defaults, except num_ue and seed, which a sweep
# sets per trial; the derived watts are not keys
_SCENARIO_KEYS = {f.name: type(f.default) for f in fields(ScenarioParams)
                  if f.init and f.name not in ("num_ue", "seed")}
_CONFIG_KEYS = {
    **_SCENARIO_KEYS,
    "ue_sweep": lambda value: tuple(int(tok) for tok in value.split(",") if tok.strip()),
    "algorithms": lambda value: tuple(tok.strip() for tok in value.split(",") if tok.strip()),
    "trials": int,
    "master_seed": int,
    "output_path": str,
}


def load_config(path: str) -> ExperimentConfig:
    """Flat `key = value` config file; '#' starts a comment. Scenario keys
    are ScenarioParams fields other than num_ue and seed; sweep keys mirror
    ExperimentConfig. A value that does not convert names its line and key;
    a config that fails validation names the file."""
    raw = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                raw[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValueError(f"{path}: missing required key {key!r}")

    try:
        scenario = ScenarioParams(**{key: value for key, value in raw.items()
                                     if key in _SCENARIO_KEYS})
        return ExperimentConfig(scenario=scenario, **{key: value for key, value in raw.items()
                                                      if key not in _SCENARIO_KEYS})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ratio_config(output_path: str, **sweep) -> ExperimentConfig:
    """Optimality-gap sweep: every algorithm, K small enough for the oracle."""
    return ExperimentConfig(scenario=ScenarioParams(), ue_sweep=tuple(range(4, 13)),
                            algorithms=("optimal", "proposed", "3c_only", "1a_only", "stronger"),
                            output_path=output_path, **sweep)


def capacity_config(output_path: str, **sweep) -> ExperimentConfig:
    """Capacity/complexity sweep: larger K, exhaustive search left out."""
    return ExperimentConfig(scenario=ScenarioParams(), ue_sweep=tuple(range(10, 21)),
                            algorithms=("proposed", "3c_only", "1a_only", "stronger"),
                            output_path=output_path, **sweep)
