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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .algebra import AlgebraElement
from .contraction import ContractionCertificate, verify_orbital_type
from .maps import MapSpec
from .metrics import MetricSpec, codomain_scalar, eval_metric, mult_op
from .solver import BoundMode, SolverConfig, SolverReport, picard_solve


class GridMismatch(Exception):
    """Sampled function does not live on the problem grid."""


class NotContractive(Exception):
    """The demo requires a contraction rate below 1."""


class QuadratureKind(Enum):
    TRAPEZOID = "trapezoid"
    MIDPOINT_LOG = "midpoint-log"


REGIME_CONTRACTIVE = "contractive"
REGIME_CONTRACTIVE_GROWING = "contractive-growing"
REGIME_NOT_CONTRACTIVE = "not-contractive"


def uniform_grid(n: int) -> np.ndarray:
    """n equispaced points in (0, 1], smallest point 1/n."""
    if n < 2:
        raise ValueError("grid needs at least two points")
    return np.linspace(1.0 / n, 1.0, n)


@dataclass(frozen=True)
class IntegralProblem:
    """Kernel parameters, grid, and quadrature choice.

    ``f0`` is the seed function for the demo orbit; by default the identity
    x -> x sampled on the grid.
    """

    alpha: float
    k: float
    grid: tuple[float, ...]
    quadrature: QuadratureKind = QuadratureKind.TRAPEZOID
    f0: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.k <= 0:
            raise ValueError("alpha and k must be positive")
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
            raise ValueError("grid must be 1-D, strictly increasing, length >= 2")
        if g[0] <= 0 or g[-1] > 1:
            raise ValueError("grid must lie inside (0, 1]")
        if self.f0 is not None and len(self.f0) != g.size:
            raise ValueError("f0 must be sampled on the grid")

    @property
    def grid_array(self) -> np.ndarray:
        return np.asarray(self.grid)

    @property
    def f0_array(self) -> np.ndarray:
        if self.f0 is None:
            return self.grid_array.copy()
        return np.asarray(self.f0, dtype=float)


def make_problem(alpha: float, k: float, n: int = 2048,
                 quadrature: QuadratureKind = QuadratureKind.TRAPEZOID,
                 f0: Any = None) -> IntegralProblem:
    return IntegralProblem(alpha, k, tuple(uniform_grid(n)), quadrature,
                           None if f0 is None else tuple(np.asarray(f0, dtype=float)))


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
    return float(np.dot(quadrature_weights(prob.grid_array, prob.quadrature),
                        values))


def apply_T(f: np.ndarray, prob: IntegralProblem) -> np.ndarray:
    """One application of the integral operator to a sampled function."""
    f = np.asarray(f, dtype=float)
    g = prob.grid_array
    if f.shape != g.shape:
        raise GridMismatch("function is not sampled on the problem grid")
    coefficient = prob.alpha * quadrature(f / (g * g + prob.k), prob)
    return coefficient * g


def integral_operator(prob: IntegralProblem) -> MapSpec:
    return MapSpec("integral-op", lambda f: apply_T(f, prob))


def problem_metric(prob: IntegralProblem) -> MetricSpec:
    return mult_op(prob.grid_array)


def mult_op_distance(f: np.ndarray, g: np.ndarray,
                     prob: IntegralProblem) -> AlgebraElement:
    """Multiplication-operator distance between two sampled functions."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != prob.grid_array.shape or g.shape != prob.grid_array.shape:
        raise GridMismatch("functions must be sampled on the problem grid")
    return eval_metric(problem_metric(prob), f, g)


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
    return 0.5 * alpha * math.log(1.0 + 1.0 / k)


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
    solution: tuple[float, ...] | None = None  # CSV export; kept out of JSON

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


def regime_report(prob: IntegralProblem, monotone_steps: int = 5) -> DemoReport:
    """Classify the (alpha, k) pair and record the numeric evidence.

    "contractive" means the rate is below 1; "contractive-growing"
    additionally has the identity seed growing under T (no parameter pair
    actually satisfies both, which the gallery records as a documented
    inconsistency); "not-contractive" means the rate is at least 1 and the
    fixed-point argument does not apply.
    """
    alpha, k = prob.alpha, prob.k
    rate = contraction_rate(alpha, k)
    growth = growth_value(alpha, k)
    g = prob.grid_array
    f0 = prob.f0_array
    id_err = abs(quadrature(g / (g * g + k), prob) - closed_form_identity_integral(k))
    const_err = abs(quadrature(1.0 / (g * g + k), prob) - closed_form_constant_integral(k))

    tf0 = apply_T(f0, prob)
    tf0_exceeds = bool(np.all(tf0 > f0))
    increasing = True
    prev, cur = f0, tf0
    for _ in range(monotone_steps):
        if not np.all(cur > prev):
            increasing = False
            break
        prev, cur = cur, apply_T(cur, prob)

    if rate < 1.0:
        regime = REGIME_CONTRACTIVE_GROWING if growth > 1.0 else REGIME_CONTRACTIVE
    else:
        regime = REGIME_NOT_CONTRACTIVE
    return DemoReport(
        alpha=alpha, k=k, grid_size=g.size, quadrature=prob.quadrature,
        rate=rate, rate_coarse_bound=alpha / k, growth=growth,
        growth_threshold_k=1.0 / (math.exp(alpha / 2.0) - 1.0),
        quadrature_errors={"identity-seed": id_err, "constant-seed": const_err},
        tf0_exceeds_f0=tf0_exceeds, iterates_increasing=increasing,
        regime=regime)


def demo_certificate(prob: IntegralProblem,
                     orbit_len: int = 30) -> ContractionCertificate:
    """Orbital certificate for the demo orbit with coefficient sqrt(rate) * I."""
    rate = contraction_rate(prob.alpha, prob.k)
    if rate >= 1.0:
        raise NotContractive(f"rate {rate:.6f} is not below 1")
    metric = problem_metric(prob)
    a = codomain_scalar(metric, math.sqrt(rate))
    return verify_orbital_type(integral_operator(prob), metric, a,
                               prob.f0_array, orbit_len)


def run_demo(prob: IntegralProblem,
             cfg: SolverConfig = SolverConfig(tol=1e-8, max_iter=200)) -> DemoReport:
    """Certify, solve, and verify the discretized equation residual."""
    report = regime_report(prob)
    if report.regime == REGIME_NOT_CONTRACTIVE:
        raise NotContractive(
            f"rate {report.rate:.6f} is not below 1 for "
            f"alpha={prob.alpha}, k={prob.k}")
    cert = demo_certificate(prob)
    solve_cfg = SolverConfig(max_iter=cfg.max_iter, tol=cfg.tol,
                             bound_mode=BoundMode.SANDWICH)
    solved: SolverReport = picard_solve(integral_operator(prob),
                                        problem_metric(prob),
                                        prob.f0_array, cert, solve_cfg)
    fstar = np.asarray(solved.fixed_point)
    residual = float(np.max(np.abs(fstar - apply_T(fstar, prob))))
    report.solver = {
        "iterations": solved.iterations,
        "converged": solved.converged,
        "residual_forward": solved.residual_forward,
        "residual_backward": solved.residual_backward,
        "fixed_point_certified": solved.fixed_point_certified,
        "fixed_point_sup": float(np.max(np.abs(fstar))),
        "bound_envelope_ok": solved.bound_envelope_ok,
    }
    report.equation_residual = residual
    report.solution = tuple(fstar.tolist())
    return report
