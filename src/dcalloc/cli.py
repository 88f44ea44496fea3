"""Command line front end: config-driven runs, oracle spot checks, and the
standard result sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (DEFAULT_MASTER_SEED, capacity_config, emit_csv,
                      load_config, ratio_config, run_experiment, trial_seed)
from .solvers import DEFAULT_BRUTE_CAP, check_proposition1, solve_brute_force
from .topology import ScenarioParams, make_instance


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dcalloc",
        description="Dual-connectivity profile allocation: simulator, solvers, sweeps")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("--config", required=True, help="flat key=value config file")
    run_p.add_argument("--out", help="override the configured output CSV path")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker processes for trials (default 1)")
    run_p.set_defaults(func=_cmd_run)

    oc = sub.add_parser("oracle-check",
                        help="exhaustive optimum + head-condition check on seeded instances")
    oc.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    oc.add_argument("--k", type=int, required=True, help="number of UEs")
    oc.add_argument("--i", type=int, default=4, help="number of SBSs (default 4)")
    oc.add_argument("--trials", type=int, default=1, help="instances to check (default 1)")
    oc.set_defaults(func=_cmd_oracle_check)

    sw = sub.add_parser("sweep", help="write the standard ratio and capacity sweeps")
    sw.add_argument("--out", default="dcpa_sweep", help="output path prefix")
    sw.add_argument("--trials", type=int, default=200, help="trials per K (default 200)")
    sw.add_argument("--master-seed", type=int, default=DEFAULT_MASTER_SEED)
    sw.add_argument("--threads", type=int, default=1)
    sw.set_defaults(func=_cmd_sweep)
    return p


def _cmd_run(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    cfg = load_config(args.config)
    if args.out:
        cfg = replace(cfg, output_path=args.out)
    records, summary = run_experiment(cfg, threads=args.threads)
    emit_csv(records, summary, cfg.output_path)
    for row in summary["rows"]:
        bits = [f"K={row['k_ues']}", f"trials={row['trials']}"]
        ratio = row["mean_ratio_proposed_optimal"]
        if ratio is not None:
            bits.append(f"mean_ratio={ratio:.6f}")
        print("  ".join(bits))
    print(f"wrote {cfg.output_path} and {cfg.output_path}.summary.csv")
    return 0


def _cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not 1 <= args.k <= DEFAULT_BRUTE_CAP:
        raise ValueError(f"--k must be between 1 and the exhaustive-search cap of "
                         f"{DEFAULT_BRUTE_CAP} UEs, got {args.k}")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError(f"--seed must be between 0 and 2**64 - 1, got {args.seed}")
    if args.i < 1:
        raise ValueError(f"--i must be >= 1, got {args.i}")
    npass = 0
    for t in range(args.trials):
        seed = trial_seed(args.seed, args.k, t)
        params = ScenarioParams(num_sbs=args.i, num_ue=args.k, seed=seed)
        _, table = make_instance(params)
        res = solve_brute_force(table)
        ok, witness = check_proposition1(table, res.alloc)
        if ok:
            npass += 1
        else:
            print(f"trial {t}: FAIL bs={witness['bs']} head_ue={witness['head_ue']} seed={seed}")
    print(f"{npass}/{args.trials} pass")
    return 0 if npass == args.trials else 1


def _cmd_sweep(args) -> int:
    for flag, value in (("--trials", args.trials), ("--threads", args.threads)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if not 0 <= args.master_seed < 2 ** 64:
        raise ValueError(f"--master-seed must be between 0 and 2**64 - 1, got {args.master_seed}")
    configs = (ratio_config(f"{args.out}_ratio.csv", trials=args.trials,
                            master_seed=args.master_seed),
               capacity_config(f"{args.out}_capacity.csv", trials=args.trials,
                               master_seed=args.master_seed))
    for cfg in configs:
        records, summary = run_experiment(cfg, threads=args.threads)
        emit_csv(records, summary, cfg.output_path)
        print(f"wrote {cfg.output_path} and {cfg.output_path}.summary.csv")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
