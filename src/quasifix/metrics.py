"""Catalog of operator-valued asymmetric metrics and empirical axiom checks.

Each metric maps a pair of points to an algebra element.  Asymmetry is the
point: ``d(x, y)`` and ``d(y, x)`` may differ, so convergence and contraction
questions split into a forward and a backward variant downstream.

Every catalog value is diagonal, sampled or scalar, so it lives in a
commutative subalgebra where the order is componentwise.  One kernel writes
each catalog metric's formulas, once, over broadcastable point arrays, in
two forms.  The table form turns two point sets into the components of
d(x_i, y_j) for every pair; it serves the axiom sweep and the global
contraction certificates (a point set against itself) and, through
``distance_norm_table``, the convergence windows (a candidate against a
sequence, and a sequence's tail against itself) and the solver's observed
tails, in either norm kind.  The paired form, ``paired_payloads``, gives
the payloads of d(x_i, y_i) for two equally long point lists; it serves
the orbit certificates, the solver's step pairs and the
lower-semicontinuity probe.  ``eval_metric`` is the
paired form on one pair.  The axiom checker sweeps positivity, identity of
indiscernibles, and the triangle inequality (in the metric's declared
partial order) over every ordered triple of a sample set, and records one
asymmetry witness pair when it finds one.  Its triangle step first screens
the pairs (x, y) with the table's min-plus square, the componentwise
``fmin`` over z of d(x, z) + d(z, y): at tol >= 0 a triple can fail only
where a component of that min lies more than tol below d(x, y).  The exact
order check then runs on the flagged pairs alone, and memory is the table
plus two buffers of its size.  Violations are data, not exceptions.

The catalog is the only kind of metric: a spec whose name the kernel does
not know raises ``ValueError``.

A function-valued spec checks its grid once, as an element grid, and its
sampled values are then built by a private trusted constructor
(``algebra._sampled_on``) that shares that grid instead of copying and
checking it again for every value; the values themselves are still checked
to be finite.  Public construction (``algebra.sampled``) keeps checking
everything.  ``mult_op`` checks its grid as it builds the spec, and that one
read-only array is both the spec's ``grid_array`` and its element grid.

The ``mult-op`` kernel writes each symbol into its array of differences,
so a pair's symbol takes one float array of its n samples (and a mask of n
bools), and the sampled operator norm (``algebra.batch_norm``) takes no
n-sized array.  An orbit goes into one validated stack as it is mapped
(``_orbit_stack``), and paired evaluations and the solver's observed tails
(``_tail_norms``, both orders) run on such stacks without stacking them
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
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
    _checked_grid,
    _sampled_on,
    batch_norm,
    diag2,
    norm,
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
    the spec stays hashable and comparable), and ``grid_array`` holds the
    same sites as a read-only float array, built once per spec.  The spec's
    sampled values share one copy of the sites, checked once as an element
    grid; for ``mult_op`` that copy is ``grid_array`` itself.  ``beta``
    scales the lower-right block of the scaled matrix split; ``period`` is
    the period of the periodic-function metric.
    ``swap_args`` evaluates ``d(y, x)`` instead of ``d(x, y)``, which is
    handy for order-reversal properties.
    """

    name: str
    codomain: str
    order: OrderKind
    norm: NormKind
    beta: float = 1.0
    period: float = 1.0
    grid: tuple[float, ...] | None = None
    swap_args: bool = False

    @cached_property
    def grid_array(self) -> np.ndarray | None:
        if self.grid is None:
            return None
        g = np.array(self.grid, dtype=float)
        g.setflags(write=False)
        return g

    @cached_property
    def _element_grid(self) -> np.ndarray:
        return _checked_grid(self.grid_array)

    def _sampled(self, values: np.ndarray) -> AlgebraElement:
        """The sampled element with ``values`` on the spec's grid."""
        return _sampled_on(self._element_grid, values)


def mat2_split() -> MetricSpec:
    """d(x, y) = diag(x - y, 0) when x >= y, else diag(0, y - x)."""
    return MetricSpec(MAT2_SPLIT, MAT2, OrderKind.ENTRYWISE,
                      NormKind.ENTRY_SUM_SQUARES)


def mat2_split_scaled(beta: float = 0.25) -> MetricSpec:
    """Matrix split with the x < y block scaled by ``beta``."""
    return MetricSpec(MAT2_SPLIT_SCALED, MAT2, OrderKind.ENTRYWISE,
                      NormKind.ENTRY_SUM_SQUARES, beta=beta)


def periodic_fn(period: float = 1.0, grid_size: int = 64) -> MetricSpec:
    """Function-valued metric sampled on [0, period).

    d(x, y)(t) = (x - y) t when x >= y, else (y - x)(period - t)/period.
    """
    if period <= 0 or grid_size < 2:
        raise ValueError("period must be positive and grid_size >= 2")
    t = np.linspace(0.0, period, grid_size, endpoint=False)
    return MetricSpec(PERIODIC_FN, SAMPLED, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, period=period, grid=tuple(t))


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
    g = _checked_grid(grid)
    spec = MetricSpec(MULT_OP, SAMPLED, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, grid=tuple(g.tolist()))
    # the checked copy is both cached arrays (a cached_property keeps its
    # value in the instance dict), so the spec converts its grid no further
    vars(spec).update(grid_array=g, _element_grid=g)
    return spec


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


def _require_fn_point(spec: MetricSpec, value: Any) -> np.ndarray:
    f = np.asarray(value, dtype=float)
    if f.shape != spec.grid_array.shape:
        raise DomainMismatch("function point does not match the metric grid")
    if not np.all(np.isfinite(f)):
        raise DomainMismatch("function point must be finite")
    return f


_OVERFLOW = "distance overflows: the points are too far apart"
_DIAGONAL = np.eye(2, dtype=bool)


def mult_op_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symbol of the multiplication-operator distance between two arrays of
    finite samples (inf, without a warning, where a difference overflows).

    |f - g|, halved where f > g, is (1/2)(f - g) there, g - f where g > f
    and 0 on ties, bit for bit: a rounded difference is rounded
    symmetrically, so it is zero exactly on ties and |f - g| = g - f
    where g > f.  The symbol is written into the array of differences.
    """
    with np.errstate(over="ignore"):
        d = np.subtract(f, g)
    halve = d > 0
    np.abs(d, out=d)
    np.multiply(d, 0.5, out=d, where=halve)
    return d


def eval_metric(spec: MetricSpec, x: Any, y: Any) -> AlgebraElement:
    """Evaluate the metric at an ordered pair of points: the one payload of
    ``paired_payloads(spec, [x], [y])``."""
    return _element(spec, paired_payloads(spec, [x], [y])[0])


def _element(spec: MetricSpec, payload: np.ndarray) -> AlgebraElement:
    """The element of the metric's codomain with payload ``payload``."""
    if spec.codomain == SAMPLED:
        return spec._sampled(payload)
    return AlgebraElement(spec.codomain, payload)


def distance_norm(spec: MetricSpec, x: Any, y: Any) -> float:
    """Norm of d(x, y) in the metric's declared norm kind."""
    return norm(eval_metric(spec, x, y), spec.norm)


def codomain_scalar(spec: MetricSpec, c: float) -> AlgebraElement:
    """The element c * I in the metric's codomain."""
    if spec.codomain == MAT2:
        return diag2(c, c)
    if spec.codomain == SAMPLED:
        return spec._sampled(np.full(spec.grid_array.shape, float(c)))
    return scalar(c)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    """Outcome of an axiom sweep over a finite sample set.

    Violation entries carry the offending points plus the numeric detail
    that failed: the extreme component, or the triangle's two sides.
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


def _payloads(codomain: str, components: np.ndarray) -> np.ndarray:
    """Element payloads from components along the last axis: diagonal 2x2
    matrices, sample vectors, or scalars.  The off-diagonal entries are +0.0,
    as in ``diag2``, also next to a -0.0 component."""
    if codomain == MAT2:
        return np.where(_DIAGONAL, components[..., :, None], 0.0)
    if codomain == SCALAR:
        return components[..., 0]
    return components


def _points(spec: MetricSpec, points: Any) -> np.ndarray:
    """Validated catalog points: a vector of finite floats for the
    real-point metrics, one row per function for ``mult-op``.

    ``mult-op`` points are stacked and checked as one array; only when that
    check fails are they checked one at a time, so that the first bad point
    raises what ``_require_fn_point`` raises for it alone.
    """
    if spec.name == MULT_OP:
        size = spec.grid_array.size
        try:
            pts = np.array(points, dtype=float)
        except ValueError:  # ragged rows, or a row that is not numeric
            pts = None
        if (pts is None or pts.ndim != 2 or pts.shape[1] != size
                or not np.isfinite(pts).all()):
            pts = np.reshape([_require_fn_point(spec, f) for f in points], (-1, size))
        return pts
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or not np.isfinite(pts).all():
        raise DomainMismatch("points must be finite reals")
    return pts


def _orbit_stack(spec: MetricSpec, step: Callable[[Any], Any], seed: Any,
                 length: int) -> np.ndarray:
    """The ``_points`` stack of the orbit seed, step(seed), ...,
    step^length(seed), with each point written into its row as it is made
    instead of collected in a list and stacked after.  ``step`` gets the
    point it returned last, as ``MapSpec.orbit`` hands it on; the first bad
    point raises what ``_points`` raises for it.
    """
    shape = spec.grid_array.shape if spec.name == MULT_OP else ()
    stack = np.empty((length + 1,) + shape)
    x = seed
    for i in range(length + 1):
        if i:
            x = step(x)
        try:
            row = np.asarray(x, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numeric
            row = None
        if row is None or row.shape != shape:
            _points(spec, [*stack[:i], x])  # raises for the first bad point
        stack[i] = row
    if not np.isfinite(stack).all():
        _points(spec, list(stack))  # raises for the first point that is not finite
    return stack


def _rows(stack: np.ndarray) -> list:
    """The points of a stack one by one: floats for the real points, and
    views of its rows for functions."""
    return stack.tolist() if stack.ndim == 1 else list(stack)


def _kernel(spec: MetricSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Components of d(X, Y) for broadcastable arrays of validated catalog
    points, with the components along a new last axis (``mult-op`` points
    carry their samples on the last axis already).

    This is the one definition of each catalog metric, which every other
    form reads; a distance with a non-finite component raises
    ``DomainMismatch``, and a spec whose name is not in the catalog raises
    ``ValueError``.
    """
    if spec.swap_args:
        X, Y = Y, X
    if spec.name == MULT_OP:
        comps = mult_op_values(X, Y)
    else:
        ge = X >= Y
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.name in (MAT2_SPLIT, MAT2_SPLIT_SCALED):
                # beta (y - x) is -beta (x - y) exactly: one difference serves both
                beta = spec.beta if spec.name == MAT2_SPLIT_SCALED else 1.0
                comps = np.empty(ge.shape + (2,))
                c0, c1 = comps[..., 0], comps[..., 1]
                np.subtract(X, Y, out=c0)
                np.multiply(c0, -beta, out=c1)
                np.copyto(c0, 0.0, where=~ge)
                np.copyto(c1, 0.0, where=ge)
            elif spec.name == SCALAR_FORWARD_ONE:
                comps = np.where(Y >= X, Y - X, 1.0)[..., None]
            elif spec.name == SCALAR_BACKWARD_ONE:
                comps = np.where(ge, X - Y, 1.0)[..., None]
            elif spec.name == PERIODIC_FN:
                t = spec.grid_array
                up = (X - Y)[..., None] * t
                down = (Y - X)[..., None] * (spec.period - t) / spec.period
                comps = np.where(ge[..., None], up, down)
            else:
                raise ValueError(f"unknown metric {spec.name!r}")
    if not np.isfinite(comps).all():
        raise DomainMismatch(_OVERFLOW)
    return comps


def _component_table(spec: MetricSpec, xs: Any,
                     ys: Any = None) -> tuple[Any, np.ndarray]:
    """The validated ``xs`` and d(x_i, y_j) as component arrays C[i, j, :].

    ``ys`` defaults to ``xs``: the square table of the axiom sweep and of
    the global contraction certificates.
    Components are diagonal entries for the matrix metrics, samples for the
    function-valued metrics, and a single value for the scalar metrics.
    """
    xs = _points(spec, xs)
    ys = xs if ys is None else _points(spec, ys)
    return xs, _kernel(spec, xs[:, None], ys[None, :])


def paired_payloads(spec: MetricSpec, xs: Any, ys: Any) -> np.ndarray:
    """Payloads of d(x_i, y_i) for the pairs of two equally long point
    lists, stacked along a new leading axis.

    ``eval_metric`` is this form on one pair.
    """
    if len(xs) != len(ys):
        raise ValueError("paired distances need as many xs as ys")
    return _paired_on(spec, _points(spec, [*xs, *ys]), slice(None, len(xs)),
                      slice(len(xs), None))


def _paired_on(spec: MetricSpec, pts: np.ndarray, xs: slice, ys: slice) -> np.ndarray:
    """``paired_payloads`` of two equally long slices of ``pts``, a stack of
    validated points (what ``_points`` or ``_orbit_stack`` returns), which
    is not checked or copied again."""
    return _payloads(spec.codomain, _kernel(spec, pts[xs], pts[ys]))


def distance_norm_table(spec: MetricSpec, xs: Any, ys: Any,
                        kind: NormKind | None = None) -> np.ndarray:
    """Norms of d(x_i, y_j) for every pair, as an array N[i, j], in norm
    ``kind`` (by default the metric's own).

    The batched form of ``norm(eval_metric(spec, x, y), kind)``, with the
    same values bit for bit: the component table's diagonal 2x2 values are
    stacked back into 2x2 payloads, so every codomain goes through the
    norm's own closed form.
    """
    kind = spec.norm if kind is None else kind
    return _norms(spec, _component_table(spec, xs, ys)[1], kind)


def _tail_norms(spec: MetricSpec, blocks: list,
                kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """Norms in ``kind`` of d(p, q) and of d(q, p) for q the last point of a
    sequence and every p before it, in sequence order.  ``blocks`` are
    stacks of validated points (``_points`` or ``_orbit_stack`` results)
    whose rows, block after block, are the sequence; they are not stacked
    again.  The values are the column and the row of
    ``distance_norm_table`` for those points, bit for bit."""
    last = blocks[-1][-1]
    before = [*blocks[:-1], blocks[-1][:-1]]
    to_last = [_norms(spec, _kernel(spec, b, last), kind) for b in before]
    from_last = [_norms(spec, _kernel(spec, last, b), kind) for b in before]
    return np.concatenate(to_last), np.concatenate(from_last)


def _norms(spec: MetricSpec, comps: np.ndarray, kind: NormKind) -> np.ndarray:
    """The norm in ``kind`` of every distance of the component array
    ``comps`` (components on its last axis), shaped like its other axes."""
    data = _payloads(spec.codomain, comps)
    flat = data.reshape((-1,) + data.shape[comps.ndim - 1:])
    return batch_norm(spec.codomain, flat, kind).reshape(comps.shape[:-1])


def check_axioms(spec: MetricSpec, sample_points: list,
                 tol: float = 1e-9) -> AxiomReport:
    """Sweep the metric axioms over every ordered pair and triple of samples.

    Sample sets shorter than three points are allowed and yield a vacuous
    (or partially vacuous) pass.  Every metric goes through one component
    table and one sweep, ``_sweep``.

    The triangle step screens before it checks.  A triple (x, y, z) fails
    when some component of d(x, z) + d(z, y) - d(x, y) is below
    -tol (1 + ||d(x, z) + d(z, y)||), and for tol >= 0 that bound is at
    most -tol.  So a failure needs a component c with
    low(x, y)_c - d(x, y)_c < -tol, where low(x, y) is the componentwise
    min over every z of d(x, z) + d(z, y): the table's min-plus square.
    Float subtraction is monotone, so the rounded differences keep that
    order, and the screen flags every pair (x, y) that can fail; for the
    entrywise order it also flags every d(x, y) with a component below
    -tol.  The min is taken with ``fmin``, which skips NaN: a NaN sum fails
    no comparison at its own z, and must not hide a failing sum at another
    z.  The exact check then runs on the flagged pairs alone, one x at a
    time, with the arithmetic of an exhaustive check, so violations come
    out in (x, y, z) order with the same ``lhs`` and ``rhs`` values.
    Memory is O(n^2) components: the table, plus two buffers of its size
    for the screen (the min-plus square, and the sums of one x).

    A negative or NaN ``tol`` raises ``ValueError``; the screen is not
    sound for the one, and every comparison passes with the other.  Points
    ``eval_metric`` rejects and overflowing distances raise
    ``DomainMismatch``; the entrywise order on a codomain other than 2x2
    matrices raises ``RealizationMismatch``.
    """
    _require_tol(tol)
    if spec.order is OrderKind.ENTRYWISE and spec.codomain != MAT2:
        raise RealizationMismatch("entrywise order is defined for mat2 only")
    return _sweep(spec, *_component_table(spec, sample_points), tol)


def _require_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


def _sweep(spec: MetricSpec, pts: Any, table: np.ndarray,
           tol: float) -> AxiomReport:
    """The axiom report of the component table C[i, j, :] = d(pts[i], pts[j])
    at ``tol`` >= 0, as ``check_axioms`` describes it."""
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

    # triangle over all ordered triples (x, y, z).  The screen, one x at a
    # time: sums[k, j] = d(x_i, z_k) + d(z_k, y_j), and low[i, j] is their
    # fmin over k (see the docstring)
    low = np.empty_like(table)
    sums = np.empty_like(table)
    for i in range(n):
        np.add(table[i][:, None, :], table, out=sums)
        np.fmin.reduce(sums, axis=0, out=low[i])
    flagged = np.any(np.subtract(low, table, out=sums) < -tol, axis=-1)
    del low, sums
    if spec.order is OrderKind.ENTRYWISE:
        flagged |= np.any(table < -tol, axis=-1)
    # the exact check on the flagged pairs, one x at a time: for x = pts[i]
    # and y_j = pts[rows[r]], lhs[r] = d(x, y_j) and
    # rhs[r, k] = d(x, z_k) + d(z_k, y_j)
    table_t = np.swapaxes(table, 0, 1)
    for i in np.flatnonzero(flagged.any(axis=1)):
        rows = np.flatnonzero(flagged[i])
        lhs = table[i, rows][:, None, :]
        rhs = table[i][None, :, :] + table_t[rows]
        tolr = tol * (1.0 + np.abs(rhs).max(axis=-1, keepdims=True))
        fails = np.any(rhs - lhs < -tolr, axis=-1)
        if spec.order is OrderKind.ENTRYWISE:
            fails |= np.any(lhs < -tol, axis=-1)
        for r, k in np.argwhere(fails):
            report.triangle_violations.append(
                {"x": pts[i], "y": pts[rows[r]], "z": pts[k],
                 "lhs": lhs[r, 0].tolist(), "rhs": rhs[r, k].tolist()})

    # the first pair i < j, in row-major order, whose two orders differ
    gap = np.abs(table - table_t).max(axis=-1)
    for i, j in np.argwhere(np.triu(gap > tol, k=1))[:1]:
        report.asymmetry_witness = (pts[i], pts[j])
    return report
