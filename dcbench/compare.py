"""Compare two saved dcbench runs, metric by metric.

    python3 dcbench/run.py --workload capacity --seed 3 > base.log
    ... change the code ...
    python3 dcbench/run.py --workload capacity --seed 3 > new.log
    python3 dcbench/compare.py base.log new.log

Refuses, with exit status 1, to compare runs of different workloads or trace
modes, or runs whose kernel backend differs: a numba run and a numpy run
time different code. Runs at the same seed must also have equal output
digests; a difference is reported and gives exit status 1.
"""

from __future__ import annotations

import json
import sys


def load(path: str):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return record, json.loads(lines[-1])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (rec_a, res_a), (rec_b, res_b) = load(argv[0]), load(argv[1])
    status = 0
    for key in ("workload", "trace"):
        if rec_a[key] != rec_b[key]:
            print(f"NOT COMPARABLE: {key} {rec_a[key]!r} vs {rec_b[key]!r}")
            return 1
    env_a, env_b = rec_a["env"], rec_b["env"]
    if env_a["backend"] != env_b["backend"]:
        print(f"NOT COMPARABLE: backend {env_a['backend']!r} vs {env_b['backend']!r}")
        status = 1
    for key in ("python", "numpy", "nproc"):
        if env_a[key] != env_b[key]:
            print(f"warning: {key} {env_a[key]!r} vs {env_b[key]!r}")
    if rec_a["seed"] == rec_b["seed"] and rec_a["digests"] != rec_b["digests"]:
        print(f"OUTPUTS DIFFER at seed {rec_a['seed']}: "
              f"{rec_a['digests']} vs {rec_b['digests']}")
        status = 1
    for res, path in ((res_a, argv[0]), (res_b, argv[1])):
        if not res["correct"]:
            print(f"warning: {path} failed its checks ({res['failed']}/{res['attempted']} trials)")
    print(f"{'metric':44s} {'a':>14s} {'b':>14s} {'b/a':>8s}")
    for name, ma in res_a["metrics"].items():
        mb = res_b["metrics"].get(name)
        if mb is None:
            print(f"{name:44s} {ma['value']:14.6g} {'missing':>14s}")
            continue
        ratio = f"{mb['value'] / ma['value']:8.3f}" if ma["value"] else f"{'-':>8s}"
        print(f"{name:44s} {ma['value']:14.6g} {mb['value']:14.6g} {ratio} {ma['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
