"""Picard iteration with geometric a-priori error envelopes.

The iteration x, Tx, T^2 x, ... runs under a contraction certificate.  Two
rate models are supported:

* SANDWICH -- the sandwich regimes contract step distances at rate
  ``r = ||a||^2`` (operator norm), giving the tail envelope
  ``B_p = ||d1^(1/2)||^2 * r^p / (1 - r)`` against ``d(T^p x, T^(n+1) x)``
  with ``d1 = d(x, Tx)``, and against the reversed order with
  ``d1 = d(Tx, x)``;
* ONE_SIDED -- the two-step regime contracts at rate ``r = ||h||`` with
  ``h = a (I - a)^-1``; only the (old, new) argument order is covered.

Envelopes always use the operator norm because the chain they come from
needs the C*-identity; stopping and residual norms use the metric's display
norm.  Global certificates require both argument orders of the step
distance to fall below tolerance before stopping; orbital and two-step
certificates promise forward convergence only, so they stop on the
(old, new) order and additionally gate fixed-point acceptance on the
lower-semicontinuity check of G(x) = d(x, Tx).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .algebra import AlgebraElement, NormKind, NotPositive, is_positive, norm, sqrt_positive
from .contraction import ContractionCertificate, Regime
from .convergence import orbital_lsc_check
from .maps import MapSpec
from .metrics import MetricSpec, eval_metric


class CertificateInvalid(Exception):
    """The supplied certificate cannot back this solve."""


class RateNotLessThanOne(Exception):
    """Geometric bounds need a contraction rate strictly below 1."""


class BoundMode(Enum):
    SANDWICH = "sandwich"
    ONE_SIDED = "one-sided"


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 1000
    tol: float = 1e-10
    bound_mode: BoundMode = BoundMode.SANDWICH

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class OrbitTrace:
    """Iterates with per-step distance norms in both orders.

    ``fwd_step_norms[i]`` is the norm of d(x_i, x_{i+1}) (old, new) and
    ``bwd_step_norms[i]`` of d(x_{i+1}, x_i), both in the display norm.
    """

    points: tuple
    fwd_step_norms: tuple[float, ...]
    bwd_step_norms: tuple[float, ...]

    def write_csv(self, path, bounds: tuple[float, ...] | None = None) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "x_n", "fwd_step_norm", "bwd_step_norm", "bound_p"])
            for n, pt in enumerate(self.points):
                xval = float(np.max(np.abs(pt))) if isinstance(pt, np.ndarray) else pt
                fwd = self.fwd_step_norms[n - 1] if n >= 1 else ""
                bwd = self.bwd_step_norms[n - 1] if n >= 1 else ""
                bound = ""
                if bounds is not None and n < len(bounds):
                    bound = bounds[n]
                writer.writerow([n, xval, fwd, bwd, bound])


@dataclass(frozen=True)
class SolverReport:
    fixed_point: Any
    iterations: int
    converged: bool
    max_iter_exceeded: bool
    residual_forward: float
    residual_backward: float
    rate: float
    bound_mode: BoundMode
    norm_kind: NormKind
    predicted_bounds: tuple[float, ...]
    observed_tail: tuple[float, ...]
    predicted_bounds_rev: tuple[float, ...] | None
    observed_tail_rev: tuple[float, ...]
    bound_envelope_ok: bool
    lsc_check: bool
    fixed_point_certified: bool
    seed: Any
    map_name: str
    metric_name: str
    trace: OrbitTrace
    uniqueness_spread: float | None = None

    def to_json_dict(self) -> dict:
        def pt(p: Any) -> Any:
            return p.tolist() if isinstance(p, np.ndarray) else p

        return {
            "fixed_point": pt(self.fixed_point),
            "iterations": self.iterations,
            "converged": self.converged,
            "max_iter_exceeded": self.max_iter_exceeded,
            "residual_forward": self.residual_forward,
            "residual_backward": self.residual_backward,
            "rate": self.rate,
            "bound_mode": self.bound_mode.value,
            "norm_kind": self.norm_kind.value,
            "bound_norm_kind": NormKind.OPERATOR.value,
            "predicted_bounds": list(self.predicted_bounds),
            "observed_tail": list(self.observed_tail),
            "predicted_bounds_rev": None if self.predicted_bounds_rev is None
            else list(self.predicted_bounds_rev),
            "observed_tail_rev": list(self.observed_tail_rev),
            "bound_envelope_ok": self.bound_envelope_ok,
            "lsc_check": self.lsc_check,
            "fixed_point_certified": self.fixed_point_certified,
            "seed": pt(self.seed),
            "map": self.map_name,
            "metric": self.metric_name,
            "uniqueness_spread": self.uniqueness_spread,
            "trace": {
                "points": [pt(p) for p in self.trace.points],
                "fwd_step_norms": list(self.trace.fwd_step_norms),
                "bwd_step_norms": list(self.trace.bwd_step_norms),
            },
        }


def apriori_bound(d1: AlgebraElement, coeff_norm: float, p: int,
                  mode: BoundMode = BoundMode.SANDWICH) -> float:
    """Geometric tail envelope B_p = ||d1^(1/2)||^2 * r^p / (1 - r).

    ``coeff_norm`` is the certificate coefficient's operator norm for
    SANDWICH mode (rate r = coeff_norm^2) and the norm of
    h = a (I - a)^-1 for ONE_SIDED mode (rate r = coeff_norm).
    """
    rate = coeff_norm ** 2 if mode is BoundMode.SANDWICH else coeff_norm
    if not 0.0 <= rate < 1.0:
        raise RateNotLessThanOne(f"rate {rate:.6f} is not inside [0, 1)")
    if not is_positive(d1):
        raise NotPositive("the first step distance must be positive")
    head = norm(sqrt_positive(d1), NormKind.OPERATOR) ** 2
    return head * rate ** p / (1.0 - rate)


def _certificate_rate(cert: ContractionCertificate, mode: BoundMode) -> tuple[float, float]:
    """(coeff_norm argument for apriori_bound, effective rate)."""
    if mode is BoundMode.ONE_SIDED:
        if cert.h_norm is None:
            raise CertificateInvalid("one-sided bounds need a two-step certificate")
        return cert.h_norm, cert.h_norm
    a_op = norm(cert.a, NormKind.OPERATOR)
    return a_op, a_op ** 2


def picard_solve(map_spec: MapSpec, metric: MetricSpec, seed: Any,
                 cert: ContractionCertificate,
                 cfg: SolverConfig = SolverConfig()) -> SolverReport:
    """Iterate x <- T(x) until the step distance falls below tolerance.

    Also evaluates the geometric tail envelope at every recorded index and
    the lower-semicontinuity gate at the final point, and reports whether
    the fixed point is certified under the certificate's regime.
    """
    if not cert.valid:
        raise CertificateInvalid(
            f"certificate has {len(cert.violations)} recorded violations")
    coeff_norm, rate = _certificate_rate(cert, cfg.bound_mode)
    if rate >= 1.0:
        raise RateNotLessThanOne(f"certificate rate {rate:.6f} is not below 1")
    display = metric.norm
    forward_only = cert.regime in (Regime.ORBITAL, Regime.TWO_STEP)

    points = [seed]
    fwd_steps: list[float] = []
    bwd_steps: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        current = points[-1]
        nxt = map_spec.apply(current)
        step_fwd = eval_metric(metric, current, nxt)
        step_bwd = eval_metric(metric, nxt, current)
        fwd_steps.append(norm(step_fwd, display))
        bwd_steps.append(norm(step_bwd, display))
        points.append(nxt)
        done = fwd_steps[-1] <= cfg.tol and (forward_only or bwd_steps[-1] <= cfg.tol)
        if done:
            converged = True
            break

    fixed_point = points[-1]
    iterations = len(points) - 1
    after = map_spec.apply(fixed_point)
    residual_forward = norm(eval_metric(metric, fixed_point, after), display)
    residual_backward = norm(eval_metric(metric, after, fixed_point), display)

    # tail envelope: d(T^p x, x_N) against the d(x, Tx) budget, and the
    # reversed order against d(Tx, x); the reversed chain is only promised
    # by the global sandwich regimes.
    last = points[-1]
    observed = tuple(norm(eval_metric(metric, points[p], last), NormKind.OPERATOR)
                     for p in range(len(points) - 1))
    observed_rev = tuple(norm(eval_metric(metric, last, points[p]), NormKind.OPERATOR)
                         for p in range(len(points) - 1))
    d1 = eval_metric(metric, seed, points[1]) if len(points) > 1 else None
    d1_rev = eval_metric(metric, points[1], seed) if len(points) > 1 else None
    if d1 is not None:
        predicted = tuple(apriori_bound(d1, coeff_norm, p, cfg.bound_mode)
                          for p in range(len(points) - 1))
    else:
        predicted = ()
    rev_covered = cert.regime in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL)
    if rev_covered and d1_rev is not None and cfg.bound_mode is BoundMode.SANDWICH:
        predicted_rev: tuple[float, ...] | None = tuple(
            apriori_bound(d1_rev, coeff_norm, p, cfg.bound_mode)
            for p in range(len(points) - 1))
    else:
        predicted_rev = None
    envelope_ok = all(o <= b + cfg.tol for o, b in zip(observed, predicted))
    if predicted_rev is not None:
        envelope_ok = envelope_ok and all(
            o <= b + cfg.tol for o, b in zip(observed_rev, predicted_rev))

    lsc = orbital_lsc_check(points, fixed_point, map_spec, metric, cfg.tol)
    if forward_only:
        certified = converged and residual_forward <= cfg.tol and lsc
    else:
        certified = (converged and residual_forward <= cfg.tol
                     and residual_backward <= cfg.tol)

    return SolverReport(
        fixed_point=fixed_point, iterations=iterations, converged=converged,
        max_iter_exceeded=not converged, residual_forward=residual_forward,
        residual_backward=residual_backward, rate=rate,
        bound_mode=cfg.bound_mode, norm_kind=display,
        predicted_bounds=predicted, observed_tail=observed,
        predicted_bounds_rev=predicted_rev, observed_tail_rev=observed_rev,
        bound_envelope_ok=envelope_ok, lsc_check=lsc,
        fixed_point_certified=certified, seed=seed,
        map_name=map_spec.name, metric_name=metric.name,
        trace=OrbitTrace(tuple(points), tuple(fwd_steps), tuple(bwd_steps)))


def uniqueness_probe(map_spec: MapSpec, metric: MetricSpec,
                     cert: ContractionCertificate, seeds: list,
                     cfg: SolverConfig = SolverConfig()) -> float:
    """Solve from every seed and return the largest pairwise distance norm.

    Only a forward-global certificate carries the uniqueness argument, so
    any other regime is refused.  The spread is taken over both argument
    orders of every pair of fixed points; callers typically assert it stays
    within twice the solver tolerance.
    """
    if cert.regime is not Regime.FORWARD_GLOBAL:
        raise CertificateInvalid(
            "uniqueness needs a forward-global certificate; "
            f"got {cert.regime.value}")
    display = metric.norm
    results = [picard_solve(map_spec, metric, seed, cert, cfg).fixed_point
               for seed in seeds]
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            spread = max(spread,
                         norm(eval_metric(metric, results[i], results[j]), display),
                         norm(eval_metric(metric, results[j], results[i]), display))
    return spread
