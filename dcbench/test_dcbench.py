"""Self-test of the benchmark: every workload briefly, untraced and traced.

    python3 -m pytest -q dcbench

Each run measures for one second, so it covers the minimum number of
rounds (untraced) or untraced/traced pairs (traced).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_agrees_with_its_traced_run(workload):
    runs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        record, result = parse(proc)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        runs[trace] = record
    # round 0 at one seed, computed untraced in one process and traced in another
    assert runs[1]["digests"] == runs[0]["digests"]
    assert runs[1]["golden"] == runs[0]["golden"]
    # wrappers sit under the names callers look functions up by
    assert {"dcalloc.solvers.subset_degradations", "dcalloc.solvers.objective_chunk",
            "dcalloc.kernels.objective_chunk", "dcalloc.harness.make_instance",
            "dcalloc.cli.check_proposition1"} <= set(runs[1]["patched"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
