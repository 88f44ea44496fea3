"""Export consistency: every name the package and its layer modules list in
__all__ resolves. The benchmark's tracer looks up each layer module's
__all__ entries with getattr, so a stale export would crash a traced run."""

import importlib

import pytest

LAYER_MODULES = ("topology", "allocation", "kernels", "solvers", "harness")


@pytest.mark.parametrize("module", ["dcalloc"] + [f"dcalloc.{m}" for m in LAYER_MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate __all__ entry"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_solvers_bind_the_kernels_by_name():
    """The greedy and the optimality checker call the kernels through names
    bound in dcalloc.solvers; the benchmark's tracer wraps and counts the
    kernels under those names, so they must be the kernels' own functions."""
    kernels = importlib.import_module("dcalloc.kernels")
    solvers = importlib.import_module("dcalloc.solvers")
    for name in ("subset_degradations", "objective_chunk"):
        assert getattr(solvers, name) is getattr(kernels, name)
