"""Catalog of operator-valued asymmetric metrics and empirical axiom checks.

Each metric maps a pair of points to an algebra element.  Asymmetry is the
point: ``d(x, y)`` and ``d(y, x)`` may differ, so convergence and contraction
questions split into a forward and a backward variant downstream.

The axiom checker sweeps positivity, identity of indiscernibles, and the
triangle inequality (in the metric's declared partial order) over every
ordered triple of a sample set, and records one asymmetry witness pair when
it finds one.  Violations are data, not exceptions.  Every value it compares
is diagonal, sampled or scalar, so it lives in a commutative subalgebra where
the order is componentwise: the sweep builds one table of the components of
d(x_i, x_j) for all pairs and checks the axioms on that table.  ``eval_metric``
keeps a one-pair form of the same formulas, because per-call array overhead
would make a batched kernel two to three times slower on a single pair; the
two forms reject the same points and distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .algebra import (
    MAT2,
    SAMPLED,
    SCALAR,
    AlgebraElement,
    NormKind,
    OrderKind,
    RealizationMismatch,
    diag2,
    leq,
    norm,
    sampled,
    scalar,
)

MAT2_SPLIT = "mat2-split"
MAT2_SPLIT_SCALED = "mat2-split-scaled"
PERIODIC_FN = "periodic-fn"
SCALAR_FORWARD_ONE = "scalar-forward-one"
SCALAR_BACKWARD_ONE = "scalar-backward-one"
MULT_OP = "mult-op"


class DomainMismatch(Exception):
    """Point is outside the metric's declared point domain."""


@dataclass(frozen=True)
class MetricSpec:
    """A named asymmetric metric with its codomain, order, and norm.

    ``grid`` carries the sample sites of function-valued codomains (tuple so
    the spec stays hashable); ``beta`` scales the lower-right block of the
    scaled matrix split; ``period`` is the period of the periodic-function
    metric.  ``swap_args`` evaluates ``d(y, x)`` instead of ``d(x, y)``,
    which is handy for order-reversal properties.
    """

    name: str
    codomain: str
    order: OrderKind
    norm: NormKind
    beta: float = 1.0
    period: float = 1.0
    grid: tuple[float, ...] | None = None
    swap_args: bool = False

    @property
    def grid_array(self) -> np.ndarray | None:
        return None if self.grid is None else np.asarray(self.grid)


def mat2_split(order: OrderKind = OrderKind.ENTRYWISE,
               norm_kind: NormKind = NormKind.ENTRY_SUM_SQUARES) -> MetricSpec:
    """d(x, y) = diag(x - y, 0) when x >= y, else diag(0, y - x)."""
    return MetricSpec(MAT2_SPLIT, MAT2, order, norm_kind)


def mat2_split_scaled(beta: float = 0.25,
                      order: OrderKind = OrderKind.ENTRYWISE,
                      norm_kind: NormKind = NormKind.ENTRY_SUM_SQUARES) -> MetricSpec:
    """Matrix split with the x < y block scaled by ``beta``."""
    return MetricSpec(MAT2_SPLIT_SCALED, MAT2, order, norm_kind, beta=beta)


def periodic_fn(period: float = 1.0, grid_size: int = 64,
                order: OrderKind = OrderKind.POSITIVE_CONE,
                norm_kind: NormKind = NormKind.OPERATOR) -> MetricSpec:
    """Function-valued metric sampled on [0, period).

    d(x, y)(t) = (x - y) t when x >= y, else (y - x)(period - t)/period.
    """
    if period <= 0 or grid_size < 2:
        raise ValueError("period must be positive and grid_size >= 2")
    t = np.linspace(0.0, period, grid_size, endpoint=False)
    return MetricSpec(PERIODIC_FN, SAMPLED, order, norm_kind,
                      period=period, grid=tuple(t))


def scalar_forward_one() -> MetricSpec:
    """d(x, y) = y - x when y >= x, else 1."""
    return MetricSpec(SCALAR_FORWARD_ONE, SCALAR, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR)


def scalar_backward_one() -> MetricSpec:
    """d(x, y) = x - y when x >= y, else 1."""
    return MetricSpec(SCALAR_BACKWARD_ONE, SCALAR, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR)


def mult_op(grid: Any) -> MetricSpec:
    """Multiplication-operator metric between functions sampled on ``grid``.

    d(f, g) is represented by the sampled symbol (1/2)(f - g) where f > g,
    (g - f) where g > f, and 0 on ties; its operator norm is the sup over
    the grid.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ValueError("grid must be 1-D, strictly increasing, length >= 2")
    return MetricSpec(MULT_OP, SAMPLED, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, grid=tuple(g))


def reversed_metric(spec: MetricSpec) -> MetricSpec:
    """The same metric with its two arguments swapped."""
    return replace(spec, swap_args=not spec.swap_args)


#: CLI-facing catalog; entries take keyword overrides.
CATALOG: dict[str, Callable[..., MetricSpec]] = {
    MAT2_SPLIT: mat2_split,
    MAT2_SPLIT_SCALED: mat2_split_scaled,
    PERIODIC_FN: periodic_fn,
    SCALAR_FORWARD_ONE: scalar_forward_one,
    SCALAR_BACKWARD_ONE: scalar_backward_one,
    MULT_OP: mult_op,
}


def _require_real_point(value: Any) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise DomainMismatch("points must be finite reals")
    return x


def _require_fn_point(spec: MetricSpec, value: Any) -> np.ndarray:
    f = np.asarray(value, dtype=float)
    if f.shape != spec.grid_array.shape:
        raise DomainMismatch("function point does not match the metric grid")
    if not np.all(np.isfinite(f)):
        raise DomainMismatch("function point must be finite")
    return f


_OVERFLOW = "distance overflows: the points are too far apart"


def _finite(value: float) -> float:
    """``value`` if it is a finite distance component, else DomainMismatch."""
    if not math.isfinite(value):
        raise DomainMismatch(_OVERFLOW)
    return value


def mult_op_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symbol of the multiplication-operator distance between two samples
    (inf, without a warning, where a difference overflows)."""
    with np.errstate(over="ignore"):
        return np.where(f > g, 0.5 * (f - g), np.where(g > f, g - f, 0.0))


def eval_metric(spec: MetricSpec, x: Any, y: Any) -> AlgebraElement:
    """Evaluate the metric at an ordered pair of points."""
    if spec.swap_args:
        x, y = y, x
    if spec.name in (MAT2_SPLIT, MAT2_SPLIT_SCALED):
        a, b = _require_real_point(x), _require_real_point(y)
        beta = spec.beta if spec.name == MAT2_SPLIT_SCALED else 1.0
        if a >= b:
            return diag2(_finite(a - b), 0.0)
        return diag2(0.0, _finite(beta * (b - a)))
    if spec.name == PERIODIC_FN:
        a, b = _require_real_point(x), _require_real_point(y)
        t = spec.grid_array
        # the samples are monotone in t: check the largest one (the last
        # when x >= y, else the first) before computing them all
        if a >= b:
            _finite((a - b) * float(t[-1]))
            values = (a - b) * t
        else:
            _finite((b - a) * (spec.period - float(t[0])) / spec.period)
            values = (b - a) * (spec.period - t) / spec.period
        return sampled(t, values)
    if spec.name == SCALAR_FORWARD_ONE:
        a, b = _require_real_point(x), _require_real_point(y)
        return scalar(_finite(b - a) if b >= a else 1.0)
    if spec.name == SCALAR_BACKWARD_ONE:
        a, b = _require_real_point(x), _require_real_point(y)
        return scalar(_finite(a - b) if a >= b else 1.0)
    if spec.name == MULT_OP:
        values = mult_op_values(_require_fn_point(spec, x), _require_fn_point(spec, y))
        if not np.all(np.isfinite(values)):
            raise DomainMismatch(_OVERFLOW)
        return sampled(spec.grid_array, values)
    evaluator = _EXTRA_EVALUATORS.get(spec.name)
    if evaluator is None:
        raise ValueError(f"unknown metric {spec.name!r}")
    return evaluator(spec, x, y)


#: Extension point for programmatic metrics (used mainly by tests).
_EXTRA_EVALUATORS: dict[str, Callable[[MetricSpec, Any, Any], AlgebraElement]] = {}


def register_evaluator(name: str,
                       fn: Callable[[MetricSpec, Any, Any], AlgebraElement]) -> None:
    _EXTRA_EVALUATORS[name] = fn


def distance_norm(spec: MetricSpec, x: Any, y: Any) -> float:
    """Norm of d(x, y) in the metric's declared norm kind."""
    return norm(eval_metric(spec, x, y), spec.norm)


def codomain_scalar(spec: MetricSpec, c: float) -> AlgebraElement:
    """The element c * I in the metric's codomain."""
    if spec.codomain == MAT2:
        return diag2(c, c)
    if spec.codomain == SAMPLED:
        g = spec.grid_array
        return sampled(g, np.full(g.shape, float(c)))
    return scalar(c)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    """Outcome of an axiom sweep over a finite sample set.

    Violation entries carry the offending points plus enough numeric detail
    to re-evaluate them; ``recheck`` re-runs every recorded violation through
    the scalar evaluation path and reports whether they all still fail.
    """

    metric: str
    tol: float
    pairs_tested: int = 0
    triples_tested: int = 0
    identity_violations: list[dict] = field(default_factory=list)
    positivity_violations: list[dict] = field(default_factory=list)
    triangle_violations: list[dict] = field(default_factory=list)
    asymmetry_witness: tuple | None = None

    @property
    def identity_ok(self) -> bool:
        return not self.identity_violations

    @property
    def positivity_ok(self) -> bool:
        return not self.positivity_violations

    @property
    def triangle_ok(self) -> bool:
        return not self.triangle_violations

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.positivity_ok and self.triangle_ok

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "tol": self.tol,
            "pairs_tested": self.pairs_tested,
            "triples_tested": self.triples_tested,
            "passed": self.passed,
            "identity_violations": _jsonify(self.identity_violations),
            "positivity_violations": _jsonify(self.positivity_violations),
            "triangle_violations": _jsonify(self.triangle_violations),
            "asymmetry_witness": _jsonify(self.asymmetry_witness),
        }

    def recheck(self, spec: MetricSpec) -> bool:
        """True iff every recorded violation fails again on re-evaluation."""
        for v in self.identity_violations:
            d = eval_metric(spec, v["x"], v["y"])
            if v["kind"] == "nonzero-at-diagonal":
                still = bool(np.any(d.data != 0.0))
            else:
                still = norm(d, spec.norm) <= self.tol
            if not still:
                return False
        for v in self.positivity_violations:
            d = eval_metric(spec, v["x"], v["y"])
            if float(np.min(d.data)) >= -self.tol:
                return False
        for v in self.triangle_violations:
            lhs = eval_metric(spec, v["x"], v["y"])
            rhs = eval_metric(spec, v["x"], v["z"]) + eval_metric(spec, v["z"], v["y"])
            tolr = self.tol * (1.0 + norm(rhs, NormKind.OPERATOR))
            if leq(lhs, rhs, spec.order, tolr):
                return False
        return True


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _components(d: AlgebraElement) -> np.ndarray:
    """Diagonal of a 2x2 value, samples of a sampled value, a scalar's value."""
    if d.realization == MAT2:
        if d.data[0, 1] != 0.0 or d.data[1, 0] != 0.0:
            raise ValueError("the axiom sweep compares diagonal 2x2 values only")
        return d.data.diagonal()
    return d.data.reshape(-1)


def _component_table(spec: MetricSpec, points: Any) -> tuple[Any, np.ndarray]:
    """The validated points and d(x_i, x_j) as component arrays C[i, j, :].

    Components are diagonal entries for the matrix metrics, samples for the
    function-valued metrics, and a single value for the scalar metrics; a
    registered evaluator's values are stacked the same way.  Points are
    validated as ``eval_metric`` validates them, and a distance with a
    non-finite component raises ``DomainMismatch`` as it does there.
    """
    if spec.order is OrderKind.ENTRYWISE and spec.codomain != MAT2:
        raise RealizationMismatch("entrywise order is defined for mat2 only")
    if spec.name not in CATALOG:
        pts = list(points)
        rows = [[_components(eval_metric(spec, x, y)) for y in pts] for x in pts]
        n = len(pts)
        return pts, np.reshape(rows, (n, n, -1)) if n else np.zeros((0, 0, 1))
    if spec.name == MULT_OP:
        pts = np.reshape([_require_fn_point(spec, f) for f in points],
                         (-1, spec.grid_array.size))
        table = mult_op_values(pts[:, None], pts[None, :])
    else:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or not np.all(np.isfinite(pts)):
            raise DomainMismatch("points must be finite reals")
        X = pts[:, None]
        Y = pts[None, :]
        ge = X >= Y
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.name in (MAT2_SPLIT, MAT2_SPLIT_SCALED):
                beta = spec.beta if spec.name == MAT2_SPLIT_SCALED else 1.0
                c0 = np.where(ge, X - Y, 0.0)
                c1 = np.where(ge, 0.0, beta * (Y - X))
                table = np.stack([c0, c1], axis=-1)
            elif spec.name == SCALAR_FORWARD_ONE:
                table = np.where(Y >= X, Y - X, 1.0)[..., None]
            elif spec.name == SCALAR_BACKWARD_ONE:
                table = np.where(ge, X - Y, 1.0)[..., None]
            else:
                t = spec.grid_array
                up = (X - Y)[..., None] * t
                down = (Y - X)[..., None] * (spec.period - t) / spec.period
                table = np.where(ge[..., None], up, down)
    if not np.all(np.isfinite(table)):
        raise DomainMismatch(_OVERFLOW)
    if spec.swap_args:
        table = np.swapaxes(table, 0, 1)
    return pts, table


def check_axioms(spec: MetricSpec, sample_points: list,
                 tol: float = 1e-9) -> AxiomReport:
    """Sweep the metric axioms over every ordered pair and triple of samples.

    Sample sets shorter than three points are allowed and yield a vacuous
    (or partially vacuous) pass.  Every metric goes through one component
    table and one sweep; the triangle step takes one x at a time, so memory
    is O(n^2) components.  Points ``eval_metric`` rejects and overflowing
    distances raise ``DomainMismatch``; the entrywise order on a codomain
    other than 2x2 matrices raises ``RealizationMismatch``.
    """
    pts, table = _component_table(spec, sample_points)
    n = len(pts)
    report = AxiomReport(metric=spec.name, tol=tol,
                         pairs_tested=n * n, triples_tested=n * n * n)

    # positivity over all ordered pairs
    min_comp = table.min(axis=-1)
    bad = np.argwhere(min_comp < -tol)
    for i, j in bad:
        report.positivity_violations.append(
            {"x": pts[i], "y": pts[j], "min_component": float(min_comp[i, j])})

    # identity of indiscernibles
    diag_nonzero = np.abs(table[np.arange(n), np.arange(n)]).max(axis=-1)
    for (i,) in np.argwhere(diag_nonzero != 0.0):
        report.identity_violations.append(
            {"x": pts[i], "y": pts[i], "kind": "nonzero-at-diagonal",
             "max_component": float(diag_nonzero[i])})
    offdiag_norm = np.abs(table).max(axis=-1)
    near_zero = (offdiag_norm <= tol) & ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(near_zero):
        report.identity_violations.append(
            {"x": pts[i], "y": pts[j], "kind": "zero-at-distinct-points",
             "max_component": float(offdiag_norm[i, j])})

    # triangle over all ordered triples (x, y, z), one x at a time: for
    # x = pts[i], lhs[j] = d(x, y_j) and rhs[j, k] = d(x, z_k) + d(z_k, y_j)
    table_t = np.swapaxes(table, 0, 1)
    for i in range(n):
        lhs = table[i][:, None, :]
        rhs = table[i][None, :, :] + table_t
        tolr = tol * (1.0 + np.abs(rhs).max(axis=-1, keepdims=True))
        fails = np.any(rhs - lhs < -tolr, axis=-1)
        if spec.order is OrderKind.ENTRYWISE:
            fails |= np.any(lhs < -tol, axis=-1)
        for j, k in np.argwhere(fails):
            report.triangle_violations.append(
                {"x": pts[i], "y": pts[j], "z": pts[k],
                 "lhs": table[i, j].tolist(), "rhs": rhs[j, k].tolist()})

    # the first pair i < j, in row-major order, whose two orders differ
    gap = np.abs(table - table_t).max(axis=-1)
    for i, j in np.argwhere(np.triu(gap > tol, k=1))[:1]:
        report.asymmetry_witness = (pts[i], pts[j])
    return report
