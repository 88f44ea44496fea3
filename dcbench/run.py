"""dcalloc benchmark: one closed-loop client running one workload.

    python3 dcbench/run.py --workload ratio|capacity|oracle --seed N \
        --seconds S --trace 0|1

Workloads (see workloads.py; each is one process, one trial at a time,
threads=1):

* ratio     ratio_config at 1 trial per K (K=4..12, all five algorithms):
            the exhaustive scan is nearly all of the time.
* capacity  capacity_config at 20 trials per K (K=10..20, no exhaustive
            solver): the greedy and its subset kernel dominate.
* oracle    the oracle-check loop at K=10, I=16, 5 trials per round: the
            scan plus check_proposition1's two private rescans.

Every run first replays its workload at the workload's default master seed
and compares the output digests with goldens.json. It then measures for
--seconds: round r runs the unit at a master seed derived from (--seed, r),
so a run sees many distinct instances and the same --seed always yields the
same ones.

--trace 0 reports the end-to-end metrics: trials_per_s (median over
rounds), setup_s (median of this process's set-up and of fresh-process
probes spread over the run: import dcalloc, build and validate the config,
one tiny solve through every kernel) and peak_rss_mb (read after the first
MIN_ROUNDS rounds).
--trace 1 repeats round 0 in untraced/traced pairs and reports per-layer
self times, call counts, exact work counts and the tracing overhead, after
checking that traced and untraced digests agree.

The last stdout line is the result as JSON; the line before it, starting
with "record ", holds the environment, digests and outputs for compare.py.
Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".dcbench_tmp"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

SETUP_PROBES = 6
# Untraced runs make at least this many rounds and read peak RSS right after
# the last of them, so it covers the same instances however fast the code
# is: the greedy's subset tables grow as 2^width, and a run that got through
# more rounds would meet wider windows.
MIN_ROUNDS = 20
MIN_PAIRS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)  # percent

E2E_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed with the end-to-end metrics but left out of the result line: they
# are exact functions of the seed (the digests pin them at the golden seed),
# not measurements, and failed_frac is 0 on a good run.
OUTPUT_UNITS = {"rate_evals": "count", "sumrate_proposed_mean": "Mbit/s",
                "sumrate_optimal_mean": "Mbit/s", "ratio_mean": "ratio",
                "failed_frac": "ratio"}

# layer -> per-layer figures reported for it
LAYER_FIGURES = {
    "kernels.brute_force_scan": ("self_s", "us_per_call", "calls", "combos_per_s"),
    "solvers.check_proposition1": ("self_s", "us_per_call"),
    "kernels.objective_chunk": ("self_s", "calls"),
    "kernels.subset_degradations": ("self_s", "us_per_call", "calls", "subsets_per_s"),
    "solvers.solve_proposed": ("self_s",),
    "solvers.build_sorted_matrix": ("us_per_call",),
    "solvers.solve_3c_only": ("self_s",),
    "solvers.solve_1a_only": ("self_s",),
    "solvers.solve_stronger": ("self_s",),
    "allocation.evaluate": ("us_per_call", "calls"),
    "topology.make_instance": ("us_per_call",),
    "harness.summarize": ("ms",),
    "harness.emit_csv": ("ms",),
}
FIGURE_UNITS = {"self_s": "s", "us_per_call": "us", "calls": "count",
                "combos_per_s": "1/s", "subsets_per_s": "1/s", "ms": "ms"}
EXACT_COUNTS = ("kernels.subset_degradations.subsets",
                "kernels.subset_degradations.max_width", "harness.emit_csv.bytes",
                "work.combos", "work.greedy_passes", "work.greedy_commits",
                "work.subset_evaluations", "work.rate_evals.optimal",
                "work.rate_evals.proposed", "work.rate_evals.3c_only",
                "work.rate_evals.1a_only", "work.rate_evals.stronger")
TRACE_UNITS = {
    "trial.p50_ms": "ms", "trial.tail_ms": "ms", "trial.tail_pct": "%",
    "trial.samples": "count",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {f"{layer}.{fig}": FIGURE_UNITS[fig]
             for layer, figs in LAYER_FIGURES.items() for fig in figs}
    units.update((name, "count") for name in EXACT_COUNTS)
    units.update(TRACE_UNITS)
    return units


class Tally:
    """Trials attempted and failed over a run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, trials: int, why: str) -> None:
        self.failed += trials
        self.problems.append(why)
        print(f"FAIL: {why}", file=sys.stderr)


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r; round 0 runs at --seed itself."""
    if r == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{r}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def warm_up(dc) -> None:
    """One tiny instance through every kernel, where a JIT backend compiles."""
    _, table = dc.make_instance(dc.ScenarioParams(num_ue=3, seed=0))
    res = dc.solve_brute_force(table)
    dc.solve_proposed(table)
    dc.check_proposition1(table, res.alloc)


def setup(wl, seed: int):
    """Import dcalloc from this checkout and make the workload ready to run.
    Returns (package, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import dcalloc
    import dcalloc.cli  # the oracle loop calls through it; not loaded by the package
    wl.config(dcalloc, seed, str(SCRATCH / "unit.csv"))
    warm_up(dcalloc)
    return dcalloc, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(dc) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "dcalloc").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": dc.get_backend(),
        "numba_imports": "numba" in dc.available_backends(),
        "DCALLOC_BACKEND": os.environ.get(dc.ENV_BACKEND),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def timed_round(dc, wl, master_seed: int, path: str, tally: Tally):
    """Runs one unit; returns (wall seconds, raw outputs), or None if it raised."""
    t0 = perf_counter()
    try:
        out = wl.run(dc, master_seed, path)
    except Exception:
        traceback.print_exc()
        tally.attempted += wl.size(dc)
        tally.fail(wl.size(dc), f"round at master seed {master_seed} raised")
        return None
    return perf_counter() - t0, out


def checked(dc, wl, out, path: str, tally: Tally, label: str):
    digests, outputs, failed = wl.check(dc, out, path)
    tally.attempted += len(out)
    if failed:
        tally.fail(failed, f"{label}: {failed} trial(s) broke an invariant")
    return digests, outputs


def golden_check(dc, wl, path: str, tally: Tally) -> dict:
    """The unit at the workload's default seed against the recorded digests."""
    timed = timed_round(dc, wl, wl.default_seed, path, tally)
    if timed is None:
        return {}
    digests, _ = checked(dc, wl, timed[1], path, tally, "golden round")
    golden = json.loads(GOLDENS.read_text())[wl.name]
    if golden["unit"] != wl.unit or golden["seed"] != wl.default_seed:
        tally.fail(len(timed[1]), f"goldens.json records {golden['unit']} at seed "
                                  f"{golden['seed']}, the workload runs {wl.unit}")
    elif golden["digests"] != digests:
        tally.fail(len(timed[1]), f"golden digests differ: got {digests}, "
                                  f"recorded {golden['digests']}")
    return digests


def measure_untraced(dc, wl, seed, seconds, path, tally):
    """Returns (per-round rates, round-0 digests and outputs, peak RSS in MiB,
    set-up probe times). The probes run between rounds, spread over the run:
    the host's slow spells last seconds, so spreading them makes setup_s
    sample slow and fast spells alike rather than whichever one came first."""
    rates, first, peak_rss, setups = [], None, 0.0, []
    start = perf_counter()
    while len(rates) < MIN_ROUNDS or perf_counter() - start < seconds:
        if (len(setups) < SETUP_PROBES
                and perf_counter() - start >= len(setups) * seconds / SETUP_PROBES):
            setups.append(probe_setup(wl.name, seed))
        timed = timed_round(dc, wl, round_seed(seed, len(rates)), path, tally)
        if timed is None:
            break
        wall, out = timed
        result = checked(dc, wl, out, path, tally, f"round {len(rates)}")
        first = first or result
        rates.append(len(out) / wall)
        if len(rates) == MIN_ROUNDS:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES - len(setups))]
    return rates, first, peak_rss, setups


def tail(samples):
    """(percentile, value) at the highest ladder percentile with at least ten
    samples beyond it; the maximum, as percentile 100, when too few samples
    leave ten beyond even the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 100.0, ordered[-1]


def measure_traced(dc, wl, seed, seconds, path, tally):
    """Untraced/traced pairs on round 0; returns (pairs, digests, patched names)."""
    tracer = Tracer(dc)
    master = round_seed(seed, 0)
    pairs, first, patched = [], None, []
    start = perf_counter()
    while len(pairs) < MIN_PAIRS or perf_counter() - start < seconds:
        label = f"pair {len(pairs)}"
        plain = timed_round(dc, wl, master, path, tally)
        if plain is None:
            break
        plain_digests, _ = checked(dc, wl, plain[1], path, tally, label + " untraced")
        tracer.reset()
        tracer.patch()
        patched = tracer.patched_names()
        try:
            traced = timed_round(dc, wl, master, path, tally)
        finally:
            tracer.restore()
        if tracer.leftover_wrappers():
            tally.fail(0, f"wrappers left after restore: {tracer.leftover_wrappers()}")
        if traced is None:
            break
        traced_digests, _ = checked(dc, wl, traced[1], path, tally, label + " traced")
        snap = {
            "wall": traced[0],
            "layers": {name: (s.calls, s.total_s, s.self_s) for name, s in tracer.stats.items()},
            "counts": {name: tracer.counts.get(name, 0) for name in EXACT_COUNTS},
            "trials": list(wl.trial_seconds(tracer, traced[1])),
        }
        first = first or (plain_digests, snap)
        if traced_digests != plain_digests or plain_digests != first[0]:
            tally.fail(len(traced[1]), f"{label}: digests differ, untraced {plain_digests}, "
                                       f"traced {traced_digests}, first {first[0]}")
        calls = {name: layer[0] for name, layer in snap["layers"].items()}
        if (snap["counts"] != first[1]["counts"]
                or calls != {name: layer[0] for name, layer in first[1]["layers"].items()}):
            tally.fail(len(traced[1]), f"{label}: call or work counts did not repeat")
        self_sum = sum(layer[2] for layer in snap["layers"].values())
        if self_sum > snap["wall"]:
            tally.fail(len(traced[1]), f"{label}: layer self times sum to {self_sum} s, "
                                       f"more than the {snap['wall']} s wall")
        pairs.append((plain[0], snap))
    return pairs, (first[0] if first else {}), patched


def layer_metrics(pairs) -> dict:
    snaps = [snap for _, snap in pairs]

    def med(fn):
        return statistics.median(fn(s) for s in snaps)

    def per_call_us(s, layer):
        calls, total, _ = s["layers"][layer]
        return total / calls * 1e6 if calls else 0.0

    def rate(s, count, layer):
        total = s["layers"][layer][1]
        return s["counts"][count] / total if total else 0.0

    out = {}
    for layer, figs in LAYER_FIGURES.items():
        for fig in figs:
            name = f"{layer}.{fig}"
            if fig == "self_s":
                out[name] = med(lambda s: s["layers"][layer][2])
            elif fig == "us_per_call":
                out[name] = med(lambda s: per_call_us(s, layer))
            elif fig == "calls":
                out[name] = snaps[0]["layers"][layer][0]
            elif fig == "ms":
                out[name] = med(lambda s: s["layers"][layer][1] * 1e3)
            elif fig == "combos_per_s":
                out[name] = med(lambda s: rate(s, "work.combos", layer))
            elif fig == "subsets_per_s":
                out[name] = med(lambda s: rate(s, "kernels.subset_degradations.subsets", layer))
    out.update(snaps[0]["counts"])
    samples = [t for s in snaps for t in s["trials"]]
    pct, value = tail(samples)
    untraced = statistics.median(plain for plain, _ in pairs)
    traced = med(lambda s: s["wall"])
    out.update({
        "trial.p50_ms": statistics.median(samples) * 1e3,
        "trial.tail_ms": value * 1e3,
        "trial.tail_pct": pct,
        "trial.samples": len(samples),
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    return out


def print_layer_table(pairs) -> None:
    snaps = [snap for _, snap in pairs]
    wall = statistics.median(s["wall"] for s in snaps)
    print(f"{'layer':34s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s} {'incl/wall':>9s}")
    rows = []
    for layer, (calls, _, _) in snaps[0]["layers"].items():
        if calls:
            incl = statistics.median(s["layers"][layer][1] for s in snaps)
            own = statistics.median(s["layers"][layer][2] for s in snaps)
            rows.append((own, layer, calls, incl))
    for own, layer, calls, incl in sorted(rows, reverse=True):
        print(f"{layer:34s} {calls:8d} {incl:10.5f} {own:10.5f} {incl / wall:9.1%}")


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")


def run(args, wl, seed: int) -> int:
    loadavg = os.getloadavg()
    dc, own_setup = setup(wl, seed)
    env = environment(dc)
    env["loadavg_at_start"] = loadavg
    print(f"dcbench {wl.name} seed={seed} trace={args.trace} seconds={args.seconds} "
          f"unit={wl.unit}")

    tally = Tally()
    workdir = SCRATCH / str(os.getpid())
    workdir.mkdir(parents=True)
    path = str(workdir / "unit.csv")
    record = {"workload": wl.name, "seed": seed, "trace": args.trace, "env": env}
    try:
        record["golden"] = golden_check(dc, wl, path, tally)
        if args.trace:
            pairs, digests, patched = measure_traced(dc, wl, seed, args.seconds, path, tally)
            record.update(digests=digests, patched=patched)
            values = layer_metrics(pairs) if pairs else {}
            units = per_layer_units()
            if pairs:
                print_layer_table(pairs)
        else:
            rates, first, peak_rss, probes = measure_untraced(dc, wl, seed, args.seconds,
                                                              path, tally)
            setup_samples = [own_setup] + probes
            digests, outputs = first if first else ({}, {})
            record.update(digests=digests, outputs=outputs, round_rates=rates,
                          setup_samples=setup_samples)
            values = {
                "trials_per_s": statistics.median(rates) if rates else 0.0,
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": peak_rss,
            }
            units = E2E_UNITS
            for name, value in outputs.items():
                print(f"{name:44s} {value!r} {OUTPUT_UNITS[name]}")
    finally:
        shutil.rmtree(workdir)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    correct = tally.failed == 0 and not tally.problems and len(values) == len(units)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(f"digests {json.dumps(record['digests'])}")
    print_metrics(metrics)
    print(f"{'failed_frac':44s} {failed_frac!r} {OUTPUT_UNITS['failed_frac']}")
    record["problems"] = tally.problems
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="master seed (default: the workload's golden seed)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "dcalloc" / "__init__.py").is_file():
        print(f"error: dcalloc sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 63:
        print("error: --seed must be in [0, 2**63)", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup(wl, seed)[1]))
        return 0
    return run(args, wl, seed)


if __name__ == "__main__":
    sys.exit(main())
