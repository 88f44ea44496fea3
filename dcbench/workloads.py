"""The benchmark's workloads: one fixed-size unit of work per round.

A round runs one unit at one master seed, in this process, with threads=1.
`run()` is the timed part and calls dcalloc only through module attributes
looked up at call time, so a Tracer's wrappers see every call. `check()` is
untimed: it digests the outputs, checks per-trial invariants and returns
the outputs a user of the library would look at.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from time import perf_counter


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class SweepWorkload:
    """`run_experiment` then `emit_csv` on one of the harness's standard
    sweep configs, as `dcalloc sweep` does, at `trials` trials per K."""

    def __init__(self, name, config_fn, trials, default_seed) -> None:
        self.name = name
        self.config_fn = config_fn
        self.trials = trials
        self.default_seed = default_seed
        self.unit = f"{config_fn}(trials={trials})"

    def config(self, dc, master_seed, path):
        cfg = getattr(dc.harness, self.config_fn)(path, trials=self.trials,
                                                  master_seed=master_seed)
        cfg.validate()
        return cfg

    def size(self, dc) -> int:
        return len(self.config(dc, self.default_seed, "unit.csv").ue_sweep) * self.trials

    def run(self, dc, master_seed, path):
        cfg = self.config(dc, master_seed, path)
        records, summary = dc.harness.run_experiment(cfg, threads=1)
        dc.harness.emit_csv(records, summary, path)
        return records

    def trial_seconds(self, tracer, records):
        return tracer.stats["harness.run_trial"].samples

    def check(self, dc, records, path):
        digests = {"trial_csv": sha256_file(path),
                   "summary_csv": sha256_file(path + ".summary.csv")}
        failed = 0
        for rec in records:
            rates = rec.sum_rates.values()
            ok = all(math.isfinite(v) and v > 0 for v in rates)
            if "optimal" in rec.sum_rates:
                # the scan maximizes over every profile vector, the greedy's too
                ok = ok and rec.ratio <= 1.0
                ok = ok and rec.op_counts["optimal"] == dc.harness.analytic_brute_count(rec.k_ues)
            failed += not ok
        outputs = {
            "rate_evals": sum(sum(r.op_counts.values()) for r in records),
            "sumrate_proposed_mean": statistics.fmean(
                r.sum_rates["proposed"] for r in records) / 1e6,
        }
        if records[0].ratio is not None:
            outputs["ratio_mean"] = statistics.fmean(r.ratio for r in records)
        return digests, outputs, failed


class OracleWorkload:
    """The `dcalloc oracle-check` loop: per trial `trial_seed`,
    `make_instance`, `solve_brute_force` and `check_proposition1`, called
    under the names `dcalloc.cli` binds them to."""

    def __init__(self, name, k_ues, num_sbs, trials, default_seed) -> None:
        self.name = name
        self.k_ues = k_ues
        self.num_sbs = num_sbs
        self.trials = trials
        self.default_seed = default_seed
        self.unit = f"oracle-check(k={k_ues}, i={num_sbs}, trials={trials})"

    def config(self, dc, master_seed, path):
        params = dc.ScenarioParams(num_sbs=self.num_sbs, num_ue=self.k_ues)
        params.validate()
        return params

    def size(self, dc) -> int:
        return self.trials

    def run(self, dc, master_seed, path):
        cli = dc.cli
        rows = []
        for t in range(self.trials):
            t0 = perf_counter()
            seed = cli.trial_seed(master_seed, self.k_ues, t)
            params = cli.ScenarioParams(num_sbs=self.num_sbs, num_ue=self.k_ues, seed=seed)
            _, table = cli.make_instance(params)
            res = cli.solve_brute_force(table)
            ok, _ = cli.check_proposition1(table, res.alloc)
            rows.append((t, seed, res.sum_rate, res.op_count, ok, perf_counter() - t0))
        return rows

    def trial_seconds(self, tracer, rows):
        return [row[-1] for row in rows]

    def check(self, dc, rows, path):
        text = "".join(f"{t},{seed},{rate!r}\n" for t, seed, rate, *_ in rows)
        digests = {"opt_sumrates": hashlib.sha256(text.encode()).hexdigest(),
                   "passes": sum(ok for *_, ok, _ in rows)}
        expected = dc.harness.analytic_brute_count(self.k_ues)
        failed = sum(not (ok and ops == expected and math.isfinite(rate) and rate > 0)
                     for _, _, rate, ops, ok, _ in rows)
        outputs = {
            "rate_evals": sum(row[3] for row in rows),
            "sumrate_optimal_mean": statistics.fmean(row[2] for row in rows) / 1e6,
        }
        return digests, outputs, failed


# Unit sizes keep one round between about 0.3 s and 1 s on a 2-core
# machine, so a 20 s run holds 20 or more rounds for its median.
WORKLOADS = {
    wl.name: wl for wl in (
        SweepWorkload("ratio", "ratio_config", trials=1, default_seed=20240816),
        SweepWorkload("capacity", "capacity_config", trials=20, default_seed=20240816),
        OracleWorkload("oracle", k_ues=10, num_sbs=16, trials=5, default_seed=7),
    )
}
