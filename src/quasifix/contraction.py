"""Contraction certificates over sampled point grids and orbits.

Four regimes are recognised:

* forward-global / backward-global -- the sandwich inequality
  ``d(Tx, Ty) <= a* d(x, y) a`` (backward swaps the base pair) must hold for
  every ordered pair of the supplied points, with ``||a|| < 1`` in the
  certificate's norm kind;
* orbital -- the sandwich is only required between consecutive orbit points
  ``d(Ty, T^2 y) <= a* d(y, Ty) a`` for y running along one orbit;
* two-step -- the one-sided inequality ``d(Ty, T^2 y) <= a d(y, T^2 y)``
  with a positive, structurally commuting coefficient of operator norm at
  most 1/2.  Its certificate also carries ``h = a (I - a)^-1``, the step
  rate the solver uses.

All four check ``lhs <= rhs`` sample by sample in the metric's order, and one
core does it for each of them.  A regime only decides the two distances of a
sample, its *tables*: ``lhs`` is d(Tx, Ty) for the global regimes and
d(Ty, T^2 y) for the orbit regimes, and ``base`` is d(x, y) (forward),
d(y, x) (backward), d(y, Ty) (orbital) or d(y, T^2 y) (two-step).  A
global certificate checks a point set X_n on X_n x X_n, as the paper's
condition ranges over every ordered pair.  Each point is mapped once and
each distance evaluated once: the global tables are the metric's table
form on the points and on their images, and the orbital lhs and base are
one paired evaluation of the orbit's steps, shifted by one.  The core forms ``rhs`` -- the sandwich
(a* base) a, or a base for two-step, in the operation order of ``mul`` --
and runs the order check on the whole batch with the per-sample tolerance
tol (1 + ||rhs||_op), or 0 where that overflows.  ``verify`` is the one
dispatch over regimes; ``search_scalar_coefficient`` reuses the tables
across all its bisection attempts.  ``samples_checked`` and the order and
fields of the violations are those of a sample-by-sample loop.  An orbital
certificate keeps the orbit it checked, its stack and its step payloads,
in memory for the solver (``CheckedOrbit``); they are not part of its JSON.

For a = c I on a catalog codomain the check is componentwise (every value
is diagonal, sampled or scalar) and monotone in u = c^2 (u = c for
two-step): component j of a sample holds iff
u (b_j + tol ||b||_op) >= l_j - tol.  So the tables fix the smallest
certifying c in closed form, up to the rounding of the check, and the
search runs the exact check only on the bisection midpoints whose answer
that closed form leaves open (``_threshold_band``).

Certificates verify finitely many samples, so they are recorded evidence,
never proofs; every certificate remembers how many samples it checked and
which ones failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from . import algebra
from .algebra import (
    AlgebraElement,
    NormKind,
    NotPositive,
    adjoint,
    element_from_json,
    element_to_json,
    is_diagonal,
    is_positive,
    mul,
    norm,
)
from .maps import MapSpec
from .metrics import (
    MetricSpec,
    _component_table,
    _orbit_stack,
    _paired_on,
    _payloads,
    _require_tol,
    _rows,
    codomain_scalar,
)

BISECTION_STEPS = 40

#: The scalar search only accepts coefficients at least this far inside the
#: regime's norm cap.  Closer to the cap the order tolerance can absorb a
#: genuine violation (the inequality gap scales like 1 - c^2), so a map that
#: certifies only within the margin is reported as having no certificate.
SEARCH_CAP_MARGIN = 1e-6

#: The scalar search decides a midpoint from the closed-form threshold only
#: when it lies outside the threshold's rounding band by more than this
#: relative gap; the midpoints inside go through the exact check.
THRESHOLD_MARGIN = 1e-12

#: Per sample, the rounding error of the order check at any c in [0, 1] is
#: below this many ulps of the sample's scale
#: sum |l| + sum |b| + tol (1 + ||b||) -- about ten ulps are needed (the
#: products, the norm, the tolerance, the difference and the 2x2
#: eigenvalue) -- plus an underflow allowance.
_ROUNDING_ULPS = 64
_UNDERFLOW = 2.0 ** -1060


class CoefficientNormTooLarge(Exception):
    """Coefficient norm violates the regime's admissibility gate."""


class NotInCommutant(Exception):
    """Two-step coefficients must come from a commuting realization."""


class Regime(Enum):
    FORWARD_GLOBAL = "forward-global"
    BACKWARD_GLOBAL = "backward-global"
    ORBITAL = "orbital"
    TWO_STEP = "two-step"


@dataclass(frozen=True, eq=False)
class CheckedOrbit:
    """The orbit an orbital certificate checked: ``points`` is its validated
    stack (row 0 the seed, one row per point) and ``steps[i]`` the payload
    of d(o_i, o_(i+1)) in ``metric``.  Both arrays are read-only."""

    metric: MetricSpec
    points: np.ndarray
    steps: np.ndarray

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.steps.setflags(write=False)


@dataclass(frozen=True)
class ContractionCertificate:
    """A checked coefficient; ``violations`` holds one dict per failing
    sample, its points already JSON values.

    An orbital certificate that ``verify`` or the search built also keeps,
    in memory only, the orbit it checked (``orbit``), which
    ``solver.picard_solve`` takes as known iterates.  ``orbit`` is outside
    the JSON contract: ``to_json_dict`` leaves it out, and a certificate
    read back from JSON has none.
    """

    regime: Regime
    a: AlgebraElement
    norm_kind: NormKind
    a_norm: float
    samples_checked: int
    violations: tuple
    seed_point: Any = None
    h: AlgebraElement | None = None
    h_norm: float | None = None
    map_name: str = ""
    metric_name: str = ""
    orbit: CheckedOrbit | None = field(default=None, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "a": element_to_json(self.a),
            "norm_kind": self.norm_kind.value,
            "a_norm": self.a_norm,
            "samples_checked": self.samples_checked,
            "violations": list(self.violations),
            "seed_point": _point_json(self.seed_point),
            "h": None if self.h is None else element_to_json(self.h),
            "h_norm": self.h_norm,
            "map": self.map_name,
            "metric": self.metric_name,
            "valid": self.valid,
        }


def certificate_from_json(obj: dict) -> ContractionCertificate:
    return ContractionCertificate(
        regime=Regime(obj["regime"]),
        a=element_from_json(obj["a"]),
        norm_kind=NormKind(obj["norm_kind"]),
        a_norm=float(obj["a_norm"]),
        samples_checked=int(obj["samples_checked"]),
        violations=tuple(obj.get("violations", ())),
        seed_point=obj.get("seed_point"),
        h=None if obj.get("h") is None else element_from_json(obj["h"]),
        h_norm=obj.get("h_norm"),
        map_name=obj.get("map", ""),
        metric_name=obj.get("metric", ""),
    )


def _point_json(p: Any) -> Any:
    if isinstance(p, np.ndarray):
        return p.tolist()
    return float(p) if isinstance(p, float) or np.isscalar(p) else p


_GLOBAL = (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL)


def _gate(regime: Regime, metric: MetricSpec,
          a: AlgebraElement) -> tuple[NormKind, float]:
    """The regime's admissibility gates on ``a``.

    Returns the certificate's norm kind and the coefficient's norm in it.
    The gates take no order tolerance as slack: a large tol would admit any
    coefficient.
    """
    if regime is not Regime.TWO_STEP:
        a_norm = norm(a, metric.norm)
        if a_norm >= 1.0:
            raise CoefficientNormTooLarge(
                f"coefficient norm {a_norm:.6f} is not below 1")
        return metric.norm, a_norm
    if not is_positive(a, 0.0):
        raise NotPositive("two-step coefficient must be positive")
    if not is_diagonal(a):
        raise NotInCommutant(
            "two-step coefficient must be scalar, sampled, or diagonal")
    op_norm = norm(a, NormKind.OPERATOR)
    if op_norm > 0.5:
        raise CoefficientNormTooLarge(
            f"two-step coefficient operator norm {op_norm:.6f} exceeds 1/2")
    return NormKind.OPERATOR, op_norm


def _tables(regime: Regime, map_spec: MapSpec, metric: MetricSpec,
            like: AlgebraElement, points: Any, seed: Any,
            orbit_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     CheckedOrbit | None]:
    """The regime's samples as (stack, lhs, base, orbit): the validated
    points, the two tables in sample order, and the orbital regime's
    ``CheckedOrbit`` (None for the other regimes).

    Every point is mapped once and every distance is evaluated once.  For
    the n ``points`` of a global regime, sample i n + j is (x_i, x_j), and
    lhs and base are the metric's table form (``metrics._component_table``)
    on the images and on the points, base transposed for the backward
    regime, flattened to n^2 payloads.  On an orbit o, stacked as it is
    made (``metrics._orbit_stack``), sample i is (o[i], o[i+1]): ``lhs[i]``
    = d(o[i+1], o[i+2]) and the orbital ``base[i]`` = d(o[i], o[i+1]) are
    one paired evaluation of the steps, shifted by one; two-step evaluates
    its base d(o[i], o[i+2]) apart.  An empty point set raises
    ``ValueError``, as an orbit shorter than two steps does.  The distances
    must live in the space of ``like`` (the coefficient), as ``mul`` and
    ``leq`` require: its realization is the metric's codomain, and a
    sampled one lies on the metric's element grid.
    """
    orbit = None
    if regime in _GLOBAL:
        if points is None:
            raise ValueError("global regimes need sample points")
        stack, base = _component_table(metric, points)
        n = len(stack)
        if not n:
            raise ValueError("global regimes need at least one sample point")
        _, lhs = _component_table(metric, [map_spec.apply(p) for p in _rows(stack)])
        if regime is Regime.BACKWARD_GLOBAL:
            base = base.swapaxes(0, 1)
        lhs, base = (_payloads(metric.codomain, t.reshape(n * n, -1))
                     for t in (lhs, base))
    else:
        if seed is None:
            raise ValueError("orbital regimes need a seed point")
        if orbit_len < 2:
            raise ValueError("orbit_len must be at least 2")
        stack = _orbit_stack(metric, map_spec.fn, seed, orbit_len + 2)
        if regime is Regime.ORBITAL:
            steps = _paired_on(metric, stack, slice(None, -1), slice(1, None))
            lhs, base = steps[1:], steps[:-1]
            orbit = CheckedOrbit(metric, stack, steps)
        else:
            lhs = _paired_on(metric, stack, slice(1, -1), slice(2, None))
            base = _paired_on(metric, stack, slice(None, -2), slice(2, None))
    grid = metric._element_grid if metric.codomain == algebra.SAMPLED else None
    algebra._require_space(like, metric.codomain, grid)
    return stack, lhs, base, orbit


def _sandwich(regime: Regime, a: AlgebraElement, base: np.ndarray) -> np.ndarray:
    """The right-hand side of each sample for coefficient ``a``: the
    sandwich (a* base) a, or a base for two-step, in the operation order of
    ``mul``.  The sandwich of a symmetric 2x2 base is symmetric, so where
    rounding splits its off-diagonal entries apart both get their mean; the
    diagonal and equal entries stay as they are."""
    kind = a.realization
    if regime is Regime.TWO_STEP:
        return algebra.batch_mul(kind, a.data, base)
    rhs = algebra.batch_mul(kind, adjoint(a).data, base)
    algebra.batch_mul(kind, rhs, a.data, out=rhs)
    if kind == algebra.MAT2:
        up, down = rhs[:, 0, 1], rhs[:, 1, 0]
        split = (up != down) & (base[:, 0, 1] == base[:, 1, 0])
        if split.any():  # halves first: the sum of two entries can overflow
            rhs[split, 0, 1] = rhs[split, 1, 0] = 0.5 * up[split] + 0.5 * down[split]
    return rhs


def _failures(regime: Regime, metric: MetricSpec, a: AlgebraElement,
              lhs: np.ndarray, base: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the samples where lhs <= rhs fails, for rhs the ``_sandwich``
    of ``a`` and ``base``.

    Each sample is compared in the metric's order with tolerance
    tol (1 + ||rhs||_op), or with tolerance 0 where that is not finite: an
    infinite tolerance would pass any sample.  The order check writes
    rhs - lhs over rhs, which nothing reads after it.
    """
    kind = a.realization
    rhs = _sandwich(regime, a, base)
    tolr = np.zeros(len(rhs))
    if tol:
        with np.errstate(over="ignore"):
            scaled = tol * (1.0 + algebra.batch_norm(kind, rhs))
        np.copyto(tolr, scaled, where=np.isfinite(scaled))
    return ~algebra.batch_leq(kind, lhs, rhs, metric.order, tolr, out=rhs)


def _threshold_band(regime: Regime, lhs: np.ndarray, base: np.ndarray,
                    tol: float) -> tuple[float, float]:
    """(lo, hi): the order check of a = c I on the tables fails for every
    c < lo and holds for every c > hi.

    Component j of a sample with base b and lhs l holds iff
    Q_j = u k_j - r_j >= 0, with u = c^2 (c for two-step),
    k_j = b_j + tol ||b||_op and r_j = l_j - tol.  The computed check can
    differ from Q_j by the sample's rounding bound e, so a component
    certainly fails for u < (r_j - e)/k_j and certainly holds for
    u > (r_j + e)/k_j; the maxima over all components give the band, which
    is then widened by ``THRESHOLD_MARGIN``.  Every 2x2 value of a table
    is diagonal (``metrics._payloads`` writes +0.0 off the diagonal), so
    the components are its diagonal entries.  The closed form needs
    non-negative values (there the entrywise order's other condition,
    l >= -tol (1 + u ||b||_op), always holds) and tol >= 0, which the
    search requires; otherwise, and when the band is not finite, it is
    (-inf, inf) and every c needs the exact check.
    """
    unknown = (-math.inf, math.inf)
    if lhs.ndim == 3:
        lhs, base = (np.diagonal(t, axis1=1, axis2=2) for t in (lhs, base))
    l = lhs.reshape(len(lhs), -1)
    b = base.reshape(len(base), -1)
    if not (np.all(l >= 0.0) and np.all(b >= 0.0)):
        return unknown
    b_norm = b.max(axis=1, keepdims=True)
    k = b + tol * b_norm
    r = l - tol
    scale = (l.sum(axis=1, keepdims=True) + b.sum(axis=1, keepdims=True)
             + tol * (1.0 + b_norm))
    err = _ROUNDING_ULPS * np.finfo(float).eps * scale + _UNDERFLOW
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a component with k = 0 does not move with c: with l = 0 it compares
        # exact zeros, and otherwise, unless it certainly holds, it gives the
        # same answer at every c or leaves it open
        if np.any((k == 0.0) & (l > 0.0) & (r > -err)):
            return unknown
        lo = np.max(np.where(k > 0.0, (r - err) / k, -np.inf))
        hi = np.max(np.where(k > 0.0, (r + err) / k, -np.inf))
    if not np.isfinite(hi):
        return unknown
    lo, hi = max(float(lo), 0.0), max(float(hi), 0.0)
    if regime is not Regime.TWO_STEP:
        lo, hi = math.sqrt(lo), math.sqrt(hi)
    return lo * (1.0 - THRESHOLD_MARGIN), hi * (1.0 + THRESHOLD_MARGIN)


def _certificate(regime: Regime, map_spec: MapSpec, metric: MetricSpec,
                 a: AlgebraElement, gate: tuple, tables: tuple, seed: Any,
                 tol: float) -> ContractionCertificate:
    """The certificate of ``a`` on ``tables``, given its ``_gate`` result."""
    norm_kind, a_norm = gate
    h = None
    if regime is Regime.TWO_STEP:
        # the step rate h = a (I - a)^-1; the gate has shown a positive with
        # ||a||_op <= 1/2, so the resolvent needs no gates of its own
        h = mul(a, algebra._inverse_one_minus_unchecked(a))
    stack, lhs, base, orbit = tables
    bad = np.flatnonzero(_failures(regime, metric, a, lhs, base, tol))
    # the order check wrote over its sandwiches: form the failing ones again
    lhs_norms = algebra.batch_norm(a.realization, lhs[bad], metric.norm).tolist()
    rhs_norms = algebra.batch_norm(a.realization, _sandwich(regime, a, base[bad]),
                                   metric.norm).tolist()
    # the (x, y) of the failing samples only, as JSON values
    xs, ys = np.divmod(bad, len(stack)) if regime in _GLOBAL else (bad, bad + 1)
    violations = tuple(
        {"x": x, "y": y, "lhs_norm": ln, "rhs_norm": rn}
        for x, y, ln, rn in zip(stack[xs].tolist(), stack[ys].tolist(),
                                lhs_norms, rhs_norms))
    return ContractionCertificate(
        regime=regime, a=a, norm_kind=norm_kind, a_norm=a_norm,
        samples_checked=len(lhs), violations=violations,
        seed_point=None if regime in _GLOBAL else seed, h=h,
        h_norm=None if h is None else norm(h, NormKind.OPERATOR),
        map_name=map_spec.name, metric_name=metric.name, orbit=orbit)


def verify(regime: Regime, map_spec: MapSpec, metric: MetricSpec,
           a: AlgebraElement, *, points: Any = None, seed: Any = None,
           orbit_len: int = 30, tol: float = 1e-9) -> ContractionCertificate:
    """Check coefficient ``a`` against the regime's inequality on every sample.

    Global regimes check every ordered pair (x_i, x_j) of the n supplied
    ``points`` (n >= 1), n^2 samples in row-major order; the orbital and
    two-step regimes check the orbit_len + 1 consecutive steps of the orbit
    of ``seed`` (orbit_len >= 2).  The regime's gates on ``a`` run first.
    A two-step certificate carries h = a (I - a)^-1 and its norm; at the
    boundary norm exactly 1/2 the resolvent still exists but h is no longer
    a contraction, which shows up as h_norm >= 1.  A negative or NaN
    ``tol`` raises ``ValueError``: the one makes the order strict, and every
    comparison fails with the other.
    """
    _require_tol(tol)
    gate = _gate(regime, metric, a)
    tables = _tables(regime, map_spec, metric, a, points, seed, orbit_len)
    return _certificate(regime, map_spec, metric, a, gate, tables, seed, tol)


def verify_orbital_type(map_spec: MapSpec, metric: MetricSpec, a: AlgebraElement,
                        seed: Any, orbit_len: int = 30,
                        tol: float = 1e-9) -> ContractionCertificate:
    """Check d(Ty, T^2 y) <= a* d(y, Ty) a for y along the orbit of ``seed``.

    ``verify`` on ``Regime.ORBITAL``, kept because it is the one name in
    ``perfbench/tracing.py``'s ``VERIFY`` on a benchmarked path, and
    ``perfbench/selftest.py`` fails when no workload counts a verify call.
    """
    return verify(Regime.ORBITAL, map_spec, metric, a, seed=seed,
                  orbit_len=orbit_len, tol=tol)


def search_scalar_coefficient(map_spec: MapSpec, metric: MetricSpec,
                              regime: Regime, *, points: Any = None,
                              seed: Any = None, orbit_len: int = 30,
                              tol: float = 1e-9) -> ContractionCertificate | None:
    """Bisect for the smallest scalar multiple of the identity that certifies.

    The admissible range is capped by the regime's norm gate (||c I|| < 1 in
    the metric's norm kind, or operator norm <= 1/2 for two-step).  Every
    sample is evaluated once: the tables of the regime are built up front,
    and each exact attempt c runs the core's order check on them with
    a = c I, asking only whether any sample fails -- no certificate and no
    violation list per attempt.  The regime's gates are monotone in c, so
    they run once, at the cap, and h is built only for the returned
    certificate.

    The bisection takes ``BISECTION_STEPS`` float midpoints of [0, cap].
    The end points always get the exact check.  A midpoint gets it only when
    it lies inside the band ``_threshold_band`` computes once from the
    tables: the closed-form threshold, widened by the check's rounding bound
    and then by ``THRESHOLD_MARGIN``.  Outside the band the answer is the
    exact check's answer by construction, so every midpoint is decided as
    the exact check decides it and the returned c is bit for bit that of
    checking every midpoint; on the catalog metrics 3 to 6 exact checks
    remain of the 43 that checking every midpoint takes.  Where no closed
    form applies (negative values, or a band that is not finite) the band
    is unbounded and every midpoint takes the exact check.

    Returns the certificate at the guaranteed-valid upper end of the final
    bracket, or None when even the cap fails.  That certificate comes from
    the same core on the same tables, so it equals what the corresponding
    ``verify`` call returns for the coefficient: the same samples_checked, and
    its (empty) violation list in sample order.  ``tol`` must be a
    non-negative number, as for ``verify``.
    """
    _require_tol(tol)
    if regime is Regime.TWO_STEP:
        cap = 0.5
    else:
        cap = (1.0 - SEARCH_CAP_MARGIN) / norm(codomain_scalar(metric, 1.0),
                                               metric.norm)
    tables = _tables(regime, map_spec, metric, codomain_scalar(metric, 0.0),
                     points, seed, orbit_len)
    _, lhs, base, _ = tables
    # for a = c I with c >= 0 every gate is monotone in c, so the gates
    # pass on all of [0, cap] once they pass at the cap
    try:
        _gate(regime, metric, codomain_scalar(metric, cap))
    except (CoefficientNormTooLarge, NotPositive, NotInCommutant):
        return None

    def holds(c: float) -> bool:
        a = codomain_scalar(metric, c)
        return not _failures(regime, metric, a, lhs, base, tol).any()

    if holds(0.0):
        c = 0.0
    elif holds(cap):
        lo, c = 0.0, cap
        fails_below, holds_above = _threshold_band(regime, lhs, base, tol)
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + c)
            if mid > holds_above or (mid >= fails_below and holds(mid)):
                c = mid
            else:
                lo = mid
    else:
        return None
    a = codomain_scalar(metric, c)
    return _certificate(regime, map_spec, metric, a, _gate(regime, metric, a),
                        tables, seed, tol)
