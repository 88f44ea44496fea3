"""The benchmark's golden digests as a tier-1 gate: each workload's unit at
its golden seed, run in this process through the benchmark's own workload
code, reproduces the digests recorded in dcbench/goldens.json."""

import importlib.util
import json
from pathlib import Path

import pytest

import dcalloc
import dcalloc.cli  # the oracle workload calls through it; the package does not load it

BENCH = Path(__file__).resolve().parents[1] / "dcbench"
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("dcbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["ratio", "capacity", "oracle"])
def test_workload_reproduces_its_golden_digests(name, tmp_path):
    wl = _workloads()[name]
    golden = GOLDENS[name]
    assert wl.unit == golden["unit"]
    path = str(tmp_path / "unit.csv")
    out = wl.run(dcalloc, golden["seed"], path)
    digests, _, failed = wl.check(dcalloc, out, path)
    assert failed == 0
    assert digests == golden["digests"]
