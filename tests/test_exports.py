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


def _benchmark_chains() -> set:
    """Every attribute chain rooted at `dc` (the package) or `cli`
    (dcalloc.cli) in the benchmark's sources, as `dc.harness.emit_csv`, and
    `dc.harness.<name>` for each sweep config the workloads name."""
    chains = set()
    for path in (Path(__file__).parents[1] / "dcbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names, base = [], node
                while isinstance(base, ast.Attribute):
                    names.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id in ("dc", "cli"):
                    chains.add(".".join([base.id, *reversed(names)]))
            # SweepWorkload(name, config_fn, ...) looks config_fn up on dc.harness
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "SweepWorkload"):
                chains.add(f"dc.harness.{ast.literal_eval(node.args[1])}")
    return chains


def test_benchmark_lookups_resolve():
    """The names the benchmark times, reports and expects to find patched:
    every timed layer is a function its module exports, every attribute the
    benchmark reads off the package or dcalloc.cli resolves, and the call
    sites bind the originals."""
    package = importlib.import_module("dcalloc")
    roots = {"dc": package, "cli": importlib.import_module("dcalloc.cli")}
    chains = _benchmark_chains()
    assert {"dc.harness.ratio_config", "dc.harness.capacity_config",
            "dc.harness.analytic_brute_count", "cli.trial_seed"} <= chains
    for chain in sorted(chains):
        root, *names = chain.split(".")
        obj = roots[root]
        for name in names:
            assert hasattr(obj, name), chain
            obj = getattr(obj, name)
    for layer in _layer_figures():
        short, name = layer.split(".")
        mod = importlib.import_module(f"dcalloc.{short}")
        assert name in mod.__all__, layer
        assert inspect.isfunction(getattr(mod, name)), layer
    bindings = {("solvers", "subset_degradations"): "kernels",
                ("solvers", "objective_chunk"): "kernels",
                ("harness", "make_instance"): "topology",
                ("cli", "check_proposition1"): "solvers"}
    for (user, name), owner in bindings.items():
        user_mod = importlib.import_module(f"dcalloc.{user}")
        owner_mod = importlib.import_module(f"dcalloc.{owner}")
        assert getattr(user_mod, name) is getattr(owner_mod, name), f"{user}.{name}"
