"""Per-layer timing of dcalloc, taken from outside the library.

A Tracer wraps every public function of the layer modules (topology,
allocation, kernels, solvers, harness) and installs each wrapper under every
name a dcalloc module binds the function to. `solvers` does
`from .kernels import subset_degradations`, so the greedy loop looks the
kernel up as `dcalloc.solvers.subset_degradations`; patching only
`dcalloc.kernels` would miss those calls. Matching by identity across all
loaded dcalloc modules catches every such alias, `cli` and the package
namespace included. `restore()` puts every original back.

Self time is a call's duration minus the time spent in wrapped calls it
made. Exact work counts are read from what the wrapped calls receive and
return: the window handed to the subset kernel, the CSV files written, and
`SolverResult.wall_notes` and op counts.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYER_MODULES = ("topology", "allocation", "kernels", "solvers", "harness")

# Per-UE scalar helpers called inside evaluate()'s loop: a wrapper would cost
# more than their body, so their time stays in evaluate's self time.
UNWRAPPED = frozenset({"share_rate", "rate_macro_ue", "rate_small_ue"})

# Layers whose individual call durations are kept for percentiles.
SAMPLED = frozenset({"harness.run_trial"})

SOLVER_ALGO = {
    "solvers.solve_brute_force": "optimal",
    "solvers.solve_proposed": "proposed",
    "solvers.solve_3c_only": "3c_only",
    "solvers.solve_1a_only": "1a_only",
    "solvers.solve_stronger": "stronger",
}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "samples")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples = []


def _count_csv_bytes(counts, args, result) -> None:
    path = args[2]
    counts["harness.emit_csv.bytes"] += (os.path.getsize(path)
                                         + os.path.getsize(path + ".summary.csv"))


def _count_subsets(counts, args, result) -> None:
    width = len(args[0])
    counts["kernels.subset_degradations.subsets"] += 1 << width
    key = "kernels.subset_degradations.max_width"
    counts[key] = max(counts[key], width)


def _count_solver(algo):
    def hook(counts, args, result) -> None:
        counts[f"work.rate_evals.{algo}"] += result.op_count
        notes = result.wall_notes
        if algo == "optimal":
            counts["work.combos"] += notes["combinations"]
        elif algo == "proposed":
            counts["work.greedy_passes"] += notes["passes"]
            counts["work.greedy_commits"] += notes["commits"]
            counts["work.subset_evaluations"] += notes["subset_evaluations"]
    return hook


HOOKS = {
    "harness.emit_csv": _count_csv_bytes,
    "kernels.subset_degradations": _count_subsets,
    **{layer: _count_solver(algo) for layer, algo in SOLVER_ALGO.items()},
}


class Tracer:
    """Wraps dcalloc's public layer functions; one instance per process."""

    def __init__(self, package) -> None:
        self.package = package.__name__
        self.stats = {}
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._wrappers = {}
        for short in LAYER_MODULES:
            mod = getattr(package, short)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    layer = f"{short}.{name}"
                    self.stats[layer] = LayerStats()
                    self._wrappers[fn] = self._wrap(fn, layer)

    def _wrap(self, fn, layer):
        stats = self.stats[layer]
        stack = self._stack
        counts = self.counts
        hook = HOOKS.get(layer)
        keep = layer in SAMPLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
                if keep:
                    stats.samples.append(dt)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == self.package or name.startswith(self.package + "."))]

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.reset()
        self.counts.clear()

    def patch(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already patched in")
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def leftover_wrappers(self) -> list:
        """Names still bound to a wrapper; empty after a clean restore()."""
        live = set(map(id, self._wrappers.values()))
        return [f"{mod.__name__}.{attr}" for mod in self._modules()
                for attr, value in vars(mod).items() if id(value) in live]

    def patched_names(self) -> list:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)
