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
  most 1/2.  Its certificate also derives ``h = a (I - a)^-1``, whose norm
  is the step rate the solver uses.

All four check ``lhs <= rhs`` sample by sample in the metric's order, and one
core does it for each of them.  A regime only decides the two distances of a
sample, its *tables*: ``lhs`` is d(Tx, Ty) for the global regimes and
d(Ty, T^2 y) for the orbit regimes, and ``base`` is d(x, y) (forward),
d(y, x) (backward), d(y, Ty) (orbital) or d(y, T^2 y) (two-step).  A
global certificate checks a point set X_n on X_n x X_n, as the paper's
condition ranges over every ordered pair.  Each point is mapped once and
each distance evaluated once: the global tables are the metric's table
form on the points and on their images, and the orbit tables are one
paired evaluation of the orbit's steps, shifted by one (``_orbit_tables``,
the one rule that also turns the steps a Picard solve walks into samples).
The core forms ``rhs`` -- the sandwich (a* base) a, or a base for
two-step, in the operation order of ``mul`` -- and runs the order check on
the whole batch with the per-sample tolerance tol (1 + ||rhs||_op), or 0
where that overflows.  ``verify`` is the one dispatch over regimes;
``search_scalar_coefficient`` reuses the tables across all its bisection
attempts.  ``samples_checked`` and the order and fields of the violations
are those of a sample-by-sample loop.  A certificate holds the map and
metric spec it was checked for and derives what its coefficient
determines.

For a = c I on a catalog codomain the exact check at tolerance 0 is
componentwise (every value is diagonal, sampled or scalar) and monotone in
u = c^2 (u = c for two-step): component j of a sample holds iff
u b_j >= l_j.  So the tables fix the smallest certifying c in closed form,
up to the rounding of the check, and the search runs the exact check only
on the bisection midpoints whose answer that closed form leaves open
(``_threshold_band``).

Certificates verify finitely many samples, so they are recorded evidence,
never proofs; every certificate remembers how many samples it checked and
which ones failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any

import numpy as np

from . import algebra
from .algebra import (
    AlgebraElement,
    NormKind,
    NotPositive,
    QuasifixError,
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
    _paired_on,
    _payloads,
    _points,
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

#: Per sample, the rounding error of the order check at tolerance 0 and any
#: c in [0, 1] is below this many ulps of the sample's scale
#: sum |l| + sum |b| -- a few ulps are needed (the products, the difference
#: and the 2x2 eigenvalue) -- plus an underflow allowance.
_ROUNDING_ULPS = 64
_UNDERFLOW = 2.0 ** -1060


class CoefficientNormTooLarge(QuasifixError):
    """Coefficient norm violates the regime's admissibility gate."""


class NotInCommutant(QuasifixError):
    """Two-step coefficients must come from a commuting realization."""


class CertificateInvalid(QuasifixError):
    """The certificate cannot back a solve."""


class Regime(Enum):
    FORWARD_GLOBAL = "forward-global"
    BACKWARD_GLOBAL = "backward-global"
    ORBITAL = "orbital"
    TWO_STEP = "two-step"

    @property
    def is_global(self) -> bool:
        """Whether the regime checks every ordered pair of a point set and
        promises convergence in both argument orders; the orbit regimes
        (orbital, two-step) check one orbit and promise forward convergence
        only."""
        return self in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL)


@dataclass(frozen=True)
class ContractionCertificate:
    """A coefficient checked for the map ``map_spec`` in the metric spec
    ``metric``, the objects a solve under it runs under (its JSON names
    them); ``violations`` holds one dict per failing sample, its points
    already JSON values.  What the coefficient determines is derived on
    first use, not stored: ``norm_kind`` and ``a_norm`` in it, the
    two-step h = a (I - a)^-1 and its operator norm, and the step ``rate``.
    """

    regime: Regime
    map_spec: MapSpec
    metric: MetricSpec
    a: AlgebraElement
    samples_checked: int
    violations: tuple
    seed_point: Any = None

    @property
    def valid(self) -> bool:
        return not self.violations

    @cached_property
    def norm_kind(self) -> NormKind:
        """The norm of the regime's gate: operator for two-step, else the metric's."""
        return NormKind.OPERATOR if self.regime is Regime.TWO_STEP else self.metric.norm

    @cached_property
    def a_norm(self) -> float:
        return norm(self.a, self.norm_kind)

    @cached_property
    def h(self) -> AlgebraElement | None:
        """a (I - a)^-1 for two-step, else None; ``ResolventInaccurate`` for
        an ``a`` read from a file whose resolvent fails its check."""
        if self.regime is not Regime.TWO_STEP:
            return None
        return mul(self.a, algebra._inverse_one_minus_unchecked(self.a))

    @cached_property
    def h_norm(self) -> float | None:
        return None if self.h is None else norm(self.h, NormKind.OPERATOR)

    @cached_property
    def rate(self) -> float:
        """||h|| for two-step, ||a||^2 (operator norm) for the sandwich."""
        if self.regime is Regime.TWO_STEP:
            return self.h_norm
        return norm(self.a, NormKind.OPERATOR) ** 2

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
            "map": self.map_spec.name,
            "metric": self.metric.name,
            "valid": self.valid,
        }


def certificate_from_json(obj: dict, map_spec: MapSpec,
                          metric: MetricSpec) -> ContractionCertificate:
    """The certificate ``obj`` holds, bound to ``map_spec`` and ``metric``;
    ``CertificateInvalid`` when ``obj`` names another map or metric, and
    what ``_gate`` raises when its coefficient fails the regime's gates."""
    for kind, spec in (("map", map_spec), ("metric", metric)):
        if obj.get(kind) != spec.name:
            raise CertificateInvalid(
                f"the certificate is for {kind} {obj.get(kind)!r}, not {spec.name!r}")
    regime, a = Regime(obj["regime"]), element_from_json(obj["a"])
    _gate(regime, metric, a)
    return ContractionCertificate(
        regime=regime,
        map_spec=map_spec,
        metric=metric,
        a=a,
        samples_checked=int(obj["samples_checked"]),
        violations=tuple(obj.get("violations", ())),
        seed_point=obj.get("seed_point"),
    )


def _point_json(p: Any) -> Any:
    if isinstance(p, np.ndarray):
        return p.tolist()
    return float(p) if isinstance(p, float) or np.isscalar(p) else p


def _gate(regime: Regime, metric: MetricSpec, a: AlgebraElement) -> None:
    """The regime's admissibility gates on ``a``: it lives in the space of
    the metric's distances, as ``mul`` and ``leq`` require (its realization
    is the metric's codomain, and a sampled one lies on the metric's element
    grid); then ||a|| < 1 in the metric's norm, or, for two-step, a positive
    diagonal a with ||a||_op <= 1/2.

    The gates take no order tolerance as slack: a large tol would admit any
    coefficient.
    """
    algebra._require_space(a, metric.codomain, metric.grid)
    if regime is not Regime.TWO_STEP:
        a_norm = norm(a, metric.norm)
        if a_norm >= 1.0:
            raise CoefficientNormTooLarge(
                f"coefficient norm {a_norm:.6f} is not below 1")
        return
    if not is_positive(a, 0.0):
        raise NotPositive("two-step coefficient must be positive")
    if not is_diagonal(a):
        raise NotInCommutant(
            "two-step coefficient must be scalar, sampled, or diagonal")
    op_norm = norm(a, NormKind.OPERATOR)
    if op_norm > 0.5:
        raise CoefficientNormTooLarge(
            f"two-step coefficient operator norm {op_norm:.6f} exceeds 1/2")


def _tables(regime: Regime, map_spec: MapSpec, metric: MetricSpec, points: Any,
            seed: Any, orbit_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The regime's samples as (stack, lhs, base): the validated points and
    the two tables in sample order.

    Every point is mapped once and every distance is evaluated once.  For
    the n ``points`` of a global regime, sample i n + j is (x_i, x_j), and
    lhs and base are the metric's table form (``metrics._component_table``)
    on the images and on the points, base transposed for the backward
    regime, flattened to n^2 payloads.  An orbit o is walked by
    ``MapSpec.orbit`` and then stacked and checked by ``metrics._points``,
    so a bad point raises what the point check raises for it, and
    ``_orbit_tables`` gives the samples (o[i], o[i+1]).  An empty point set
    raises ``ValueError``, as an orbit shorter than two steps does.
    """
    if regime.is_global:
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
        return stack, lhs, base
    if seed is None:
        raise ValueError("orbital regimes need a seed point")
    if orbit_len < 2:
        raise ValueError("orbit_len must be at least 2")
    stack = _points(metric, map_spec.orbit(seed, orbit_len + 2))
    return (stack, *_orbit_tables(regime, metric, stack))


def _orbit_tables(regime: Regime, metric: MetricSpec, stack: np.ndarray,
                  steps: np.ndarray | None = None, reverse: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, base) of the samples (o_i, o_(i+1)), i < len(stack) - 2, of the
    orbit ``stack``, for a certificate's orbit and a solve's walk alike.
    lhs[i] is d(o_(i+1), o_(i+2)) = ``steps[i + 1]``, and base[i] is
    d(o_i, o_(i+1)) (forward-global, orbital), ``reverse[i]`` =
    d(o_(i+1), o_i) (backward-global) or d(o_i, o_(i+2)) (two-step, one
    paired evaluation).  A solve passes both orders of the steps it walked,
    ``steps`` and ``reverse``, whatever the regime.  Without ``steps`` the
    steps the regime reads are one paired evaluation here: two-step never
    reads d(o_0, o_1).
    """
    if regime is Regime.TWO_STEP:
        lhs = (steps[1:] if steps is not None
               else _paired_on(metric, stack, slice(1, -1), slice(2, None)))
        return lhs, _paired_on(metric, stack, slice(None, -2), slice(2, None))
    if steps is None:
        steps = _paired_on(metric, stack, slice(None, -1), slice(1, None))
    return steps[1:], (reverse if regime is Regime.BACKWARD_GLOBAL else steps)[:-1]


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


def _threshold_band(regime: Regime, lhs: np.ndarray,
                    base: np.ndarray) -> tuple[float, float]:
    """(lo, hi): the order check of a = c I on the tables at tolerance 0
    fails for every c < lo and holds for every c > hi.

    Component j of a sample with base b and lhs l holds iff
    Q_j = u b_j - l_j >= 0, with u = c^2 (c for two-step).  The computed
    check can differ from Q_j by the sample's rounding bound e, so a
    component certainly fails for u < (l_j - e)/b_j and certainly holds for
    u > (l_j + e)/b_j; the maxima over all components give the band, which
    is then widened by ``THRESHOLD_MARGIN``.  Every 2x2 value of a table
    is diagonal (``metrics._payloads`` writes +0.0 off the diagonal), so
    the components are its diagonal entries.  The closed form needs
    non-negative values (there the entrywise order's other condition,
    l >= 0, always holds); otherwise, and when the band is not finite, it
    is (-inf, inf) and every c needs the exact check.
    """
    unknown = (-math.inf, math.inf)
    if lhs.ndim == 3:
        lhs, base = (np.diagonal(t, axis1=1, axis2=2) for t in (lhs, base))
    l = lhs.reshape(len(lhs), -1)
    b = base.reshape(len(base), -1)
    if not (np.all(l >= 0.0) and np.all(b >= 0.0)):
        return unknown
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # sums near the float limit overflow to inf, and so the band to
        # (-inf, inf): every midpoint then takes the exact check
        scale = l.sum(axis=1, keepdims=True) + b.sum(axis=1, keepdims=True)
        err = _ROUNDING_ULPS * np.finfo(float).eps * scale + _UNDERFLOW
        # a component with b = 0 does not move with c: with l = 0 it compares
        # exact zeros, and with l > 0 it fails at every c or leaves it open
        if np.any((b == 0.0) & (l > 0.0)):
            return unknown
        lo = np.max(np.where(b > 0.0, (l - err) / b, -np.inf))
        hi = np.max(np.where(b > 0.0, (l + err) / b, -np.inf))
    if not np.isfinite(hi):
        return unknown
    lo, hi = max(float(lo), 0.0), max(float(hi), 0.0)
    if regime is not Regime.TWO_STEP:
        lo, hi = math.sqrt(lo), math.sqrt(hi)
    return lo * (1.0 - THRESHOLD_MARGIN), hi * (1.0 + THRESHOLD_MARGIN)


def _certificate(regime: Regime, map_spec: MapSpec, metric: MetricSpec,
                 a: AlgebraElement, tables: tuple, seed: Any,
                 tol: float) -> ContractionCertificate:
    """The certificate of ``a``, which has passed ``_gate``, on ``tables``."""
    stack, lhs, base = tables
    bad = np.flatnonzero(_failures(regime, metric, a, lhs, base, tol))
    # the order check wrote over its sandwiches: form the failing ones again
    lhs_norms = algebra.batch_norm(a.realization, lhs[bad], metric.norm).tolist()
    rhs_norms = algebra.batch_norm(a.realization, _sandwich(regime, a, base[bad]),
                                   metric.norm).tolist()
    # the (x, y) of the failing samples only, as JSON values
    xs, ys = np.divmod(bad, len(stack)) if regime.is_global else (bad, bad + 1)
    violations = tuple(
        {"x": x, "y": y, "lhs_norm": ln, "rhs_norm": rn}
        for x, y, ln, rn in zip(stack[xs].tolist(), stack[ys].tolist(),
                                lhs_norms, rhs_norms))
    return ContractionCertificate(
        regime=regime, map_spec=map_spec, metric=metric, a=a,
        samples_checked=len(lhs), violations=violations,
        seed_point=None if regime.is_global else seed)


def verify(regime: Regime, map_spec: MapSpec, metric: MetricSpec,
           a: AlgebraElement, *, points: Any = None, seed: Any = None,
           orbit_len: int = 30, tol: float = 1e-9) -> ContractionCertificate:
    """Check coefficient ``a`` against the regime's inequality on every sample.

    Global regimes check every ordered pair (x_i, x_j) of the n supplied
    ``points`` (n >= 1), n^2 samples in row-major order; the orbital and
    two-step regimes check the orbit_len + 1 consecutive steps of the orbit
    of ``seed`` (orbit_len >= 2).  The regime's gates on ``a`` run first.
    A two-step certificate derives h = a (I - a)^-1 and its norm; at the
    boundary norm exactly 1/2 the resolvent still exists but h is no longer
    a contraction, which shows up as h_norm >= 1.  A negative or NaN
    ``tol`` raises ``ValueError``: the one makes the order strict, and every
    comparison fails with the other.

    A sample *moves* when its lhs has a nonzero component.  When no sample
    fails at ``tol`` but every moving one fails at tolerance 0, the
    tolerance alone decided the check (a zero ``a`` under a large ``tol``
    passes any map), and ``CertificateInvalid`` is raised instead of
    returning a certificate.
    """
    _require_tol(tol)
    _gate(regime, metric, a)
    tables = _tables(regime, map_spec, metric, points, seed, orbit_len)
    cert = _certificate(regime, map_spec, metric, a, tables, seed, tol)
    if cert.valid and tol:
        _, lhs, base = tables
        moving = lhs.reshape(len(lhs), -1).any(axis=1)
        if moving.any() and _failures(regime, metric, a, lhs, base, 0.0)[moving].all():
            raise CertificateInvalid(
                f"all {np.count_nonzero(moving)} moving samples fail at tolerance 0 "
                f"and pass only within tolerance {tol!r}")
    return cert


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
    they run once, at the cap.  Every attempt is decided at tolerance 0, so
    the tolerance cannot lower c below what the samples need (x/4 gives
    c = 1/2 up to rounding); the certificate returned is checked at ``tol``.

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
    bracket, or None when even the cap fails at tolerance 0.  That
    certificate comes from the same core on the same tables, so it equals
    what the corresponding ``verify`` call returns for the coefficient: the
    same samples_checked, and its (empty) violation list in sample order.
    ``tol`` must be a non-negative number, as for ``verify``.
    """
    _require_tol(tol)
    if regime is Regime.TWO_STEP:
        cap = 0.5
    else:
        cap = (1.0 - SEARCH_CAP_MARGIN) / norm(codomain_scalar(metric, 1.0),
                                               metric.norm)
    tables = _tables(regime, map_spec, metric, points, seed, orbit_len)
    _, lhs, base = tables
    # for a = c I with c >= 0 every gate is monotone in c, so the gates
    # pass on all of [0, cap] once they pass at the cap
    try:
        _gate(regime, metric, codomain_scalar(metric, cap))
    except (CoefficientNormTooLarge, NotPositive, NotInCommutant):
        return None

    def holds(c: float) -> bool:
        a = codomain_scalar(metric, c)
        return not _failures(regime, metric, a, lhs, base, 0.0).any()

    if holds(0.0):
        c = 0.0
    elif holds(cap):
        lo, c = 0.0, cap
        fails_below, holds_above = _threshold_band(regime, lhs, base)
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + c)
            if mid > holds_above or (mid >= fails_below and holds(mid)):
                c = mid
            else:
                lo = mid
    else:
        return None
    return _certificate(regime, map_spec, metric, codomain_scalar(metric, c),
                        tables, seed, tol)
