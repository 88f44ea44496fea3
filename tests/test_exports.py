"""Export consistency: every name the package and its layer modules list in
__all__ resolves. The benchmark's tracer looks up each layer module's
__all__ entries with getattr, so a stale export would crash a traced run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYER_MODULES = ("topology", "allocation", "kernels", "solvers", "harness")


@pytest.mark.parametrize("module", ["dcalloc"] + [f"dcalloc.{m}" for m in LAYER_MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate __all__ entry"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_each_public_name_has_one_owner():
    """The package's __all__ is its layer modules' lists joined in layer
    order, with no name listed twice. Each name the package exports is the
    object of the one layer module that lists it, and each function and
    class among them is defined there."""
    package = importlib.import_module("dcalloc")
    layers = [importlib.import_module(f"dcalloc.{m}") for m in LAYER_MODULES]
    assert package.__all__ == [name for mod in layers for name in mod.__all__]
    assert len(set(package.__all__)) == len(package.__all__)
    for mod in layers:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(package, name) is obj, name
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name


def test_every_public_function_and_class_has_a_docstring():
    """Each function and class the package exports carries a docstring of
    its own, read from its source: a dataclass's generated signature text
    does not count."""
    package = importlib.import_module("dcalloc")
    missing = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not ast.get_docstring(ast.parse(inspect.getsource(obj)).body[0]):
                missing.append(name)
    assert missing == []


def test_solvers_bind_the_kernels_by_name():
    """The greedy and the optimality checker call the kernels through names
    bound in dcalloc.solvers; the benchmark's tracer wraps and counts the
    kernels under those names, so they must be the kernels' own functions."""
    kernels = importlib.import_module("dcalloc.kernels")
    solvers = importlib.import_module("dcalloc.solvers")
    for name in ("subset_degradations", "objective_chunk"):
        assert getattr(solvers, name) is getattr(kernels, name)


def test_the_cap_has_one_owner():
    """The scan's K cap and its error live in dcalloc.kernels; the solvers
    module and the package re-export those very objects."""
    kernels = importlib.import_module("dcalloc.kernels")
    for module in ("dcalloc.solvers", "dcalloc"):
        mod = importlib.import_module(module)
        for name in ("DEFAULT_BRUTE_CAP", "BruteForceCapError"):
            assert getattr(mod, name) is getattr(kernels, name), f"{module}.{name}"


def _layer_figures() -> dict:
    """LAYER_FIGURES of the benchmark runner, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "dcbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FIGURES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("dcbench/run.py defines no LAYER_FIGURES")


def test_benchmark_lookups_resolve():
    """The names the benchmark times, reports and expects to find patched:
    every timed layer is a function its module exports, the backend probes
    resolve on the package, and the call sites bind the originals."""
    package = importlib.import_module("dcalloc")
    for layer in _layer_figures():
        short, name = layer.split(".")
        mod = importlib.import_module(f"dcalloc.{short}")
        assert name in mod.__all__, layer
        assert inspect.isfunction(getattr(mod, name)), layer
    for name in ("get_backend", "available_backends", "ENV_BACKEND"):
        assert hasattr(package, name), name
    bindings = {("solvers", "subset_degradations"): "kernels",
                ("solvers", "objective_chunk"): "kernels",
                ("harness", "make_instance"): "topology",
                ("cli", "check_proposition1"): "solvers"}
    for (user, name), owner in bindings.items():
        user_mod = importlib.import_module(f"dcalloc.{user}")
        owner_mod = importlib.import_module(f"dcalloc.{owner}")
        assert getattr(user_mod, name) is getattr(owner_mod, name), f"{user}.{name}"
