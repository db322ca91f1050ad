"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of every ``quasifix`` layer
module by rebinding module attributes at run time, including the names other
modules imported (``contraction.eval_metric`` and the like), plus
``MapSpec.apply``/``MapSpec.orbit`` and ``AlgebraElement.__init__`` (a count
only, no span).  Each call records a span -- name, start, end, parent span,
op id -- in flat arrays that stay in memory until ``write``.  A few functions
also feed counters from their results (samples checked, iterations, ...).
``layer_metrics`` turns spans and counters into the per-op layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = ("algebra", "maps", "metrics", "convergence", "contraction",
          "solver", "integral", "cli")

#: Unit of every per-layer metric.  Counts and self times are per op.
LAYER_UNITS = {
    "algebra.elements_created": "count/op",
    "algebra.calls": "count/op",
    "algebra.self_s": "s/op",
    "maps.apply_calls": "count/op",
    "maps.self_s": "s/op",
    "contraction.search_calls": "count/op",
    "contraction.search_self_s": "s/op",
    "contraction.verify_calls": "count/op",
    "contraction.verify_self_s": "s/op",
    "contraction.samples_checked": "count/op",
    "contraction.useful_ratio": "ratio",
    "metrics.eval_calls": "count/op",
    "metrics.eval_self_s": "s/op",
    "metrics.sweep_calls": "count/op",
    "metrics.sweep_self_s": "s/op",
    "metrics.triples_per_s": "1/s",
    "metrics.violations_recorded": "count/op",
    "cli.report_bytes": "B/op",
    "cli.self_s": "s/op",
    "solver.solve_calls": "count/op",
    "solver.iterations": "count/op",
    "solver.self_s": "s/op",
    "solver.envelope_self_s": "s/op",
    "integral.apply_calls": "count/op",
    "integral.apply_self_s": "s/op",
    "integral.self_s": "s/op",
    "convergence.calls": "count/op",
    "convergence.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}

VERIFY = ("contraction.verify_global", "contraction.verify_orbital_type",
          "contraction.verify_two_step")
SEARCH = "contraction.search_scalar_coefficient"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[["Tracer", Any], None] | None = None) -> Callable:
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are bound."""
        modules = {layer: sys.modules[f"quasifix.{layer}"] for layer in LAYERS}
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, _RESULT_HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "quasifix" or mod_name.startswith("quasifix."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped and inspect.isfunction(value):
                        setattr(module, attr, wrapped[id(value)])

        map_spec = modules["maps"].MapSpec
        map_spec.apply = self.wrap("maps.apply", map_spec.apply)
        map_spec.orbit = self.wrap("maps.orbit", map_spec.orbit, _count_orbit)

        element = modules["algebra"].AlgebraElement
        init = element.__init__

        def counted_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            self.count("algebra.elements_created")
            init(obj, *args, **kwargs)

        element.__init__ = counted_init

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(list(self.name_ids)), **self.arrays())

    def layer_metrics(self, ops: int, report_bytes: int,
                      overhead_ratio: float) -> dict[str, float]:
        """Per-op layer metrics from the recorded spans and counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        names = np.array(list(self.name_ids))[a["name"]]
        layer_of = np.array([n.split(".", 1)[0] for n in self.name_ids])[a["name"]]
        parent_name = np.where(has_parent, names[np.maximum(a["parent"], 0)], "")

        def sel(*wanted: str) -> np.ndarray:
            return np.isin(names, wanted)

        def layer(name: str) -> np.ndarray:
            return layer_of == name

        def per_op(x: float) -> float:
            return float(x) / ops

        c = self.counters
        verify = sel(*VERIFY)
        search = sel(SEARCH)
        sweeps = sel("metrics.check_axioms")
        # certificates handed back: non-None search results, plus verify
        # calls made directly rather than as search attempts
        returned = c.get("contraction.certificates_found", 0) + \
            int(np.count_nonzero(verify & (parent_name != SEARCH)))
        verify_calls = int(np.count_nonzero(verify))
        sweep_time = float(dur[sweeps].sum())
        return {
            "algebra.elements_created": per_op(c.get("algebra.elements_created", 0)),
            "algebra.calls": per_op(np.count_nonzero(layer("algebra"))),
            "algebra.self_s": per_op(self_time[layer("algebra")].sum()),
            "maps.apply_calls": per_op(np.count_nonzero(sel("maps.apply"))
                                       + c.get("maps.orbit_steps", 0)),
            "maps.self_s": per_op(self_time[layer("maps")].sum()),
            "contraction.search_calls": per_op(np.count_nonzero(search)),
            "contraction.search_self_s": per_op(self_time[search].sum()),
            "contraction.verify_calls": per_op(verify_calls),
            "contraction.verify_self_s": per_op(self_time[verify].sum()),
            "contraction.samples_checked": per_op(c.get("contraction.samples_checked", 0)),
            "contraction.useful_ratio": returned / verify_calls if verify_calls else 0.0,
            "metrics.eval_calls": per_op(np.count_nonzero(sel("metrics.eval_metric"))),
            "metrics.eval_self_s": per_op(self_time[sel("metrics.eval_metric")].sum()),
            "metrics.sweep_calls": per_op(np.count_nonzero(sweeps)),
            "metrics.sweep_self_s": per_op(self_time[sweeps].sum()),
            "metrics.triples_per_s": c.get("metrics.triples", 0) / sweep_time
            if sweep_time else 0.0,
            "metrics.violations_recorded": per_op(c.get("metrics.violations", 0)),
            "cli.report_bytes": per_op(report_bytes),
            "cli.self_s": per_op(self_time[layer("cli")].sum()),
            "solver.solve_calls": per_op(np.count_nonzero(sel("solver.picard_solve"))),
            "solver.iterations": per_op(c.get("solver.iterations", 0)),
            "solver.self_s": per_op(self_time[layer("solver")].sum()),
            "solver.envelope_self_s": per_op(self_time[sel("solver.apriori_bound")].sum()),
            "integral.apply_calls": per_op(np.count_nonzero(sel("integral.apply_T"))),
            "integral.apply_self_s": per_op(self_time[sel("integral.apply_T")].sum()),
            "integral.self_s": per_op(self_time[layer("integral")].sum()),
            "convergence.calls": per_op(np.count_nonzero(layer("convergence"))),
            "convergence.self_s": per_op(self_time[layer("convergence")].sum()),
            "trace.overhead_ratio": overhead_ratio,
        }


# -- result hooks: counters read off what a layer function returned ---------

def _count_orbit(tracer: Tracer, points: list) -> None:
    tracer.count("maps.orbit_steps", len(points) - 1)


def _count_certificate(tracer: Tracer, cert: Any) -> None:
    tracer.count("contraction.samples_checked", cert.samples_checked)
    tracer.count("metrics.violations", len(cert.violations))


def _count_search(tracer: Tracer, cert: Any) -> None:
    if cert is not None:
        tracer.count("contraction.certificates_found")


def _count_sweep(tracer: Tracer, report: Any) -> None:
    tracer.count("metrics.triples", report.triples_tested)
    tracer.count("metrics.violations",
                 len(report.identity_violations) + len(report.positivity_violations)
                 + len(report.triangle_violations))


def _count_solve(tracer: Tracer, report: Any) -> None:
    tracer.count("solver.iterations", report.iterations)


_RESULT_HOOKS = {
    **{name: _count_certificate for name in VERIFY},
    SEARCH: _count_search,
    "metrics.check_axioms": _count_sweep,
    "solver.picard_solve": _count_solve,
}
