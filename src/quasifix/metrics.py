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
``distance_norm_table``, the uniqueness probe's spread, in either norm
kind.  The convergence window is no caller of the table form: it is one
``_kernel`` table of a validated stack's tail against itself, normed by
``_norms``.  The paired form, ``paired_payloads``, gives
the payloads of d(x_i, y_i) for two equally long point lists; it serves
the lower-semicontinuity probe, and its distances in the diagonal layout
(``_paired_on``) serve the orbit certificates and the solver's step and
residual pairs.  ``eval_metric`` is the paired form on one pair.  The
diagonal layout (``_diagonals``) keeps a 2x2 value as its two diagonal
entries, the batch layout ``algebra.DIAG2``; the norms of the table forms
and the verification core compute on it, and ``_payloads`` expands it into
2x2 payloads for elements.  The axiom checker sweeps positivity, identity of
indiscernibles, and the triangle inequality (in the metric's declared
partial order) over every ordered triple of a sample set, and records one
asymmetry witness pair when it finds one.  Its triangle step first screens
the pairs (x, y) with the table's min-plus square, the componentwise
``fmin`` over z of d(x, z) + d(z, y): at tol >= 0 a triple can fail only
where a component of that min lies more than tol below d(x, y).
``periodic-fn``, whose components are affine in t for each pair, screens
on its first and last components alone, with a rounding margin: the least
of d(x, z) + d(z, y) - d(x, y) over z is concave in t, so it is least at
an end of the t-grid.  Its positivity and identity checks read those two
components alone too, as they hold each pair's least component and largest
magnitude.  The exact order check then runs on every component of the
flagged pairs alone, and memory is the table plus two buffers of the
screened components' size.  The witness is searched row by row and the
search stops at the first pair it finds.  Violations are data, not
exceptions.

The catalog is the only kind of metric: a spec whose name the kernel does
not know raises ``ValueError``.

A function-valued spec checks its grid once, as it is built, and keeps it
as one read-only float array, ``grid``.  Its sampled values are then built
by a private trusted constructor (``algebra._sampled_on``) that shares that
array instead of copying and checking it again for every value; the values
themselves are still checked to be finite.  Public construction
(``algebra.sampled``) keeps checking everything.  Specs compare and hash by
identity: two specs built alike are equal only when they are one object.

The ``mult-op`` kernel writes each symbol into its array of differences,
so a pair's symbol takes one float array of its n samples (and a mask of n
bools), and the sampled operator norm (``algebra.batch_norm``) takes no
n-sized array.  An orbit is checked once, as one validated stack
(``_points``), and paired evaluations, the solver's observed tails and a
convergence candidate's distances to a sequence (``_tail_norms``, both
orders) run on such stacks without stacking them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .algebra import (
    DIAG2,
    MAT2,
    SAMPLED,
    SCALAR,
    AlgebraElement,
    NormKind,
    OrderKind,
    QuasifixError,
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


class DomainMismatch(QuasifixError):
    """Point is outside the metric's declared point domain."""


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """A named asymmetric metric with its codomain, order, and norm.

    ``grid`` carries the sample sites of function-valued codomains: one
    read-only float array, checked as an element grid when the spec is built
    (a grid that cannot carry sampled values raises ``ValueError`` there),
    which the spec's sampled values share.  ``beta`` scales the lower-right
    block of the scaled matrix split; ``period`` is the period of the
    periodic-function metric.  ``swap_args`` evaluates ``d(y, x)`` instead
    of ``d(x, y)``, which is handy for order-reversal properties.

    Specs compare and hash by identity, so a spec rebuilt from the same
    fields is another spec.
    """

    name: str
    codomain: str
    order: OrderKind
    norm: NormKind
    beta: float = 1.0
    period: float = 1.0
    grid: np.ndarray | None = None
    swap_args: bool = False

    def __post_init__(self) -> None:
        if self.grid is not None or self.codomain == SAMPLED:
            object.__setattr__(self, "grid", _checked_grid(self.grid))

    def _sampled(self, values: np.ndarray) -> AlgebraElement:
        """The sampled element with ``values`` on the spec's grid."""
        return _sampled_on(self.grid, values)


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
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be a positive finite number, got {period!r}")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    t = np.linspace(0.0, period, grid_size, endpoint=False)
    return MetricSpec(PERIODIC_FN, SAMPLED, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, period=period, grid=t)


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
    return MetricSpec(MULT_OP, SAMPLED, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, grid=grid)


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
    if f.shape != spec.grid.shape:
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
    return _element(spec, _paired_on(spec, _points(spec, [x, y]), slice(0, 1),
                                     slice(1, 2))[0])


def _element(spec: MetricSpec, diagonal: np.ndarray) -> AlgebraElement:
    """The element of the metric's codomain whose distance in the diagonal
    layout (``_diagonals``) is ``diagonal``."""
    if spec.codomain == SAMPLED:
        return spec._sampled(diagonal)
    return AlgebraElement(spec.codomain, _payloads(spec.codomain, diagonal))


def distance_norm(spec: MetricSpec, x: Any, y: Any) -> float:
    """Norm of d(x, y) in the metric's declared norm kind."""
    return norm(eval_metric(spec, x, y), spec.norm)


def codomain_scalar(spec: MetricSpec, c: float) -> AlgebraElement:
    """The element c * I in the metric's codomain."""
    if spec.codomain == MAT2:
        return diag2(c, c)
    if spec.codomain == SAMPLED:
        return spec._sampled(np.full(spec.grid.shape, float(c)))
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


def _diagonals(codomain: str, components: np.ndarray) -> np.ndarray:
    """Distances from their components along the last axis, in the diagonal
    layout of the codomain's batches (``_layout``): a 2x2 value as its two
    diagonal entries, a sampled one as its samples, a scalar as its value."""
    return components[..., 0] if codomain == SCALAR else components


def _layout(codomain: str) -> str:
    """The realization the batch operations take distances of ``codomain``
    as, in the diagonal layout: ``algebra.DIAG2`` for 2x2 values."""
    return DIAG2 if codomain == MAT2 else codomain


def _payloads(codomain: str, diagonals: np.ndarray) -> np.ndarray:
    """Element payloads from distances in the diagonal layout: diagonal 2x2
    matrices, sample vectors, or scalars.  The off-diagonal entries are +0.0,
    as in ``diag2``, also next to a -0.0 component."""
    if codomain == MAT2:
        return np.where(_DIAGONAL, diagonals[..., :, None], 0.0)
    return diagonals


def _points(spec: MetricSpec, points: Any) -> np.ndarray:
    """Validated catalog points: a vector of finite floats for the
    real-point metrics, one row per function for ``mult-op``.

    ``mult-op`` points are stacked and checked as one array; only when that
    check fails are they checked one at a time, so that the first bad point
    raises what ``_require_fn_point`` raises for it alone.
    """
    if spec.name == MULT_OP:
        size = spec.grid.size
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
                # (x - y) t where x >= y, else (y - x)(period - t) / period,
                # each written only where it is taken
                t = spec.grid
                comps = np.empty(ge.shape + t.shape)
                up = ge[..., None]
                down = ~up
                np.multiply((X - Y)[..., None], t, out=comps, where=up)
                np.multiply((Y - X)[..., None], spec.period - t, out=comps, where=down)
                np.divide(comps, spec.period, out=comps, where=down)
            else:
                raise ValueError(f"unknown metric {spec.name!r}")
    finite = np.isfinite(comps).all()
    if not finite and spec.name == PERIODIC_FN:
        # a product (y - x)(period - t) past the float range can have a
        # finite quotient: those entries alone divide first, so every
        # other entry keeps its bits
        with np.errstate(over="ignore"):
            np.multiply((Y - X)[..., None], (spec.period - t) / spec.period, out=comps,
                        where=down & np.isinf(comps))
        finite = np.isfinite(comps).all()
    if not finite:
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
    return _payloads(spec.codomain, _paired_on(spec, _points(spec, [*xs, *ys]),
                                               slice(None, len(xs)), slice(len(xs), None)))


def _paired_on(spec: MetricSpec, pts: np.ndarray, xs: slice, ys: slice) -> np.ndarray:
    """The distances of ``paired_payloads``, in the diagonal layout
    (``_diagonals``), of two equally long slices of ``pts``, a stack of
    validated points (what ``_points`` returns), which is not checked or
    copied again."""
    return _diagonals(spec.codomain, _kernel(spec, pts[xs], pts[ys]))


def distance_norm_table(spec: MetricSpec, xs: Any, ys: Any,
                        kind: NormKind | None = None) -> np.ndarray:
    """Norms of d(x_i, y_j) for every pair, as an array N[i, j], in norm
    ``kind`` (by default the metric's own).

    The batched form of ``norm(eval_metric(spec, x, y), kind)``, with the
    same values bit for bit: the component table's 2x2 values go to the
    norm's closed form in the ``DIAG2`` layout, which passes it zero
    off-diagonal entries.
    """
    kind = spec.norm if kind is None else kind
    return _norms(spec, _component_table(spec, xs, ys)[1], kind)


def _tail_norms(spec: MetricSpec, stack: np.ndarray,
                kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """Norms in ``kind`` of d(p, q) and of d(q, p) for q the last row of
    ``stack`` and every row p before it, in row order.  ``stack`` holds
    validated points (a ``_points`` result, or a slice of one), which are
    not stacked again.  The values are the column and the row of
    ``distance_norm_table`` for those points, bit for bit."""
    before, last = stack[:-1], stack[-1]
    return (_norms(spec, _kernel(spec, before, last), kind),
            _norms(spec, _kernel(spec, last, before), kind))


def _norms(spec: MetricSpec, comps: np.ndarray, kind: NormKind) -> np.ndarray:
    """The norm in ``kind`` of every distance of the component array
    ``comps`` (components on its last axis), shaped like its other axes."""
    data = _diagonals(spec.codomain, comps)
    flat = data.reshape((-1,) + data.shape[comps.ndim - 1:])
    return batch_norm(_layout(spec.codomain), flat, kind).reshape(comps.shape[:-1])


def check_axioms(spec: MetricSpec, sample_points: list,
                 tol: float = 1e-9) -> AxiomReport:
    """Sweep the metric axioms over every ordered pair and triple of samples.

    Sample sets shorter than three points are allowed and yield a vacuous
    (or partially vacuous) pass.  Every metric goes through one component
    table and one sweep, ``_sweep``.

    The triangle step screens before it checks.  A triple (x, y, z) fails
    when some component of d(x, z) + d(z, y) - d(x, y) is below
    -tol (1 + ||d(x, z) + d(z, y)||), and for tol >= 0 that bound is at
    most -tol.  A sum of two finite distances can pass the float range:
    at tol 0 the bound is still 0, and at tol > 0 it is -inf, so the triple
    passes.  So a failure needs a component c with
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
    Memory is O(n^2) components: the table, plus two buffers for the screen
    (the min-plus square, and the sums of one x).

    ``periodic-fn``, in either argument order, screens on its first and
    last components alone, so its buffers hold two components per pair.
    Each pair's computed components are monotone in t, and those two hold
    the pair's least component and its largest magnitude: the positivity
    and identity checks read them alone, with the values a pass over every
    component gives.  A component is (x - y) t, or (y - x) r / P with
    r = P - t rounded, computed product first; where that product passes
    the float range, which happens at the smallest t of the pair, as
    (y - x)(r / P).  Every rounding is monotone, so either formula alone is
    monotone in t.  Where a pair's components change formula, from t_{k-1}
    to t_k, the divide-first one is at least (1 - eps)(y - x) r_{k-1} / P
    and the product-first one at most (1 + eps)(y - x) r_k / P.  Since
    r_{k-1} - r_k is within 2 eps P of P/m, the two keep their order for any
    grid of fewer than 2^50 points.  For one pair each
    component is affine in t in exact arithmetic on the stored grid,
    (x - y) t or (y - x)(P - t)/P, so for each z the exact
    S_z(t) = d(x, z)(t) + d(z, y)(t) - d(x, y)(t) is affine in t, and the
    min over z of S_z is concave: on the grid it is least at t_0 or t_{m-1}.
    Rounding is bounded as ``contraction._threshold_band`` bounds it.  Let
    M be the largest magnitude of the end components, which is that of the
    whole table.  A computed component is within 2 eps of its exact value,
    relative (at most four roundings, by either formula), plus
    u = 2^-1074 / min(P, 1) for a product that underflows before the
    division by P.  The sum and the
    difference add 2.5 eps M, so a computed difference is within
    E = 9 eps M + 3u of S_z.  If tol is below the margin, z = y gives an
    exact 0 at every pair, and every pair is flagged.  Otherwise a failing
    component (its difference below -tol, so tol < 3M) puts S_z below
    -tol + E there, and so below -tol + E at an end of the grid.  There the
    sum is finite (an overflowing one has S_z > -E), and the computed
    difference is below -tol + 2E.  So comparing the end differences with
    margin - tol flags every pair that can fail, for a margin above 2E plus
    the rounding of margin - tol (1.5 eps M).  The margin is
    64 eps M + 2^-1060 / min(P, 1), which is over three times that.  At
    ``tol`` 0 the margin flags every pair: the exact check then runs on all
    n^2 pairs, with the same violations.

    The asymmetry witness, the first pair i < j in row-major order whose
    two distances differ by more than ``tol`` in some component, is found
    row by row: row i of the table against its column i, stopping at the
    first row that holds one.

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


#: The ``periodic-fn`` triangle screen's rounding margin, in ulps of the
#: table's largest magnitude (the derivation in ``check_axioms`` needs about
#: 20), and an allowance for products that underflow before the division by
#: the period.
_SCREEN_ULPS = 64
_UNDERFLOW = 2.0 ** -1060


def _require_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


@np.errstate(over="ignore")  # a sum of two finite distances can pass the floats
def _sweep(spec: MetricSpec, pts: Any, table: np.ndarray,
           tol: float) -> AxiomReport:
    """The axiom report of the component table C[i, j, :] = d(pts[i], pts[j])
    at ``tol`` >= 0, as ``check_axioms`` describes it."""
    n = len(pts)
    report = AxiomReport(metric=spec.name, tol=tol,
                         pairs_tested=n * n, triples_tested=n * n * n)

    # positivity over all ordered pairs; the end components hold each
    # pair's least component and largest magnitude
    ends = _end_components(spec, table)
    min_comp = ends.min(axis=-1)
    bad = np.argwhere(min_comp < -tol)
    for i, j in bad:
        report.positivity_violations.append(
            {"x": pts[i], "y": pts[j], "min_component": float(min_comp[i, j])})

    # identity of indiscernibles
    diag_nonzero = np.abs(ends[np.arange(n), np.arange(n)]).max(axis=-1)
    for (i,) in np.argwhere(diag_nonzero != 0.0):
        report.identity_violations.append(
            {"x": pts[i], "y": pts[i], "kind": "nonzero-at-diagonal",
             "max_component": float(diag_nonzero[i])})
    offdiag_norm = np.abs(ends).max(axis=-1)
    near_zero = (offdiag_norm <= tol) & ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(near_zero):
        report.identity_violations.append(
            {"x": pts[i], "y": pts[j], "kind": "zero-at-distinct-points",
             "max_component": float(offdiag_norm[i, j])})

    # triangle over all ordered triples (x, y, z), checked exactly on the
    # pairs the screen flags, one x at a time: for x = pts[i] and
    # y_j = pts[rows[r]], lhs[r] = d(x, y_j) and
    # rhs[r, k] = d(x, z_k) + d(z_k, y_j)
    flagged = _triangle_screen(spec, table, tol)
    table_t = np.swapaxes(table, 0, 1)
    for i in np.flatnonzero(flagged.any(axis=1)):
        rows = np.flatnonzero(flagged[i])
        lhs = table[i, rows][:, None, :]
        rhs = table[i][None, :, :] + table_t[rows]
        # at tol 0 the tolerance is 0, also where the sum overflows
        tolr = tol * (1.0 + np.abs(rhs).max(axis=-1, keepdims=True)) if tol else 0.0
        fails = np.any(rhs - lhs < -tolr, axis=-1)
        if spec.order is OrderKind.ENTRYWISE:
            fails |= np.any(lhs < -tol, axis=-1)
        for r, k in np.argwhere(fails):
            report.triangle_violations.append(
                {"x": pts[i], "y": pts[rows[r]], "z": pts[k],
                 "lhs": lhs[r, 0].tolist(), "rhs": rhs[r, k].tolist()})

    # the first pair i < j, in row-major order, whose two orders differ:
    # row i of the table against its column i, one i at a time
    for i in range(n - 1):
        gap = np.abs(table[i, i + 1:] - table[i + 1:, i]).max(axis=-1)
        (later,) = np.nonzero(gap > tol)
        if later.size:
            report.asymmetry_witness = (pts[i], pts[i + 1 + later[0]])
            break
    return report


@np.errstate(over="ignore")  # as in _sweep
def _triangle_screen(spec: MetricSpec, table: np.ndarray, tol: float) -> np.ndarray:
    """flagged[i, j]: whether the triangle step checks the triples
    (x_i, x_j, z) exactly, for the component table C[i, j, :] = d(x_i, x_j)
    at ``tol`` >= 0, as ``check_axioms`` describes it: from every component
    with no margin, or for ``periodic-fn`` from its two end components with
    its rounding margin."""
    comps, margin = _end_components(spec, table), 0.0
    if spec.name == PERIODIC_FN:
        margin = (_SCREEN_ULPS * np.finfo(float).eps * float(np.abs(comps).max(initial=0.0))
                  + _UNDERFLOW / min(abs(spec.period), 1.0))
    # one x at a time: sums[k, j] = d(x_i, z_k) + d(z_k, y_j), and low[i, j]
    # is their fmin over k
    low = np.empty_like(comps)
    sums = np.empty_like(comps)
    for i in range(len(comps)):
        np.add(comps[i][:, None, :], comps, out=sums)
        np.fmin.reduce(sums, axis=0, out=low[i])
    flagged = np.any(np.subtract(low, comps, out=sums) < margin - tol, axis=-1)
    if spec.order is OrderKind.ENTRYWISE:
        flagged |= np.any(table < -tol, axis=-1)
    return flagged


def _end_components(spec: MetricSpec, table: np.ndarray) -> np.ndarray:
    """The components of ``table`` that hold each pair's least component
    and largest magnitude: the first and the last for ``periodic-fn``, whose
    computed components are monotone in t for each pair, else every one."""
    return table[..., [0, -1]] if spec.name == PERIODIC_FN else table
