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
