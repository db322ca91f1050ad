"""Picard iteration with geometric a-priori error envelopes.

The iteration x, Tx, T^2 x, ... runs under a contraction certificate, at
the step rate ``r`` its regime proves (``ContractionCertificate.rate``; no
caller chooses it): ``||a||^2`` (operator norm) for the sandwich regimes,
and ``||h||`` with ``h = a (I - a)^-1`` for two-step, whose report calls
the bound one-sided.

The envelope ``apriori_envelope(d1, r, count)`` bounds d(T^p x, T^(n+1) x)
with ``d1 = d(x, Tx)``.  The global regimes also cover the reversed order,
with ``d1 = d(Tx, x)``; orbital and two-step certificates cover only the
(old, new) order.

Envelopes always use the operator norm because the chain they come from
needs the C*-identity; stopping and residual norms use the metric's display
norm.  Global certificates require both argument orders of the step
distance to fall below tolerance before stopping; orbital and two-step
certificates promise forward convergence only, so they stop on the
(old, new) order.  A fixed point is certified when the solve converged and
its residual d(x_N, T x_N) is within tolerance, in both orders under a
global regime.  The lower-semicontinuity check of G(x) = d(x, Tx) is
reported as evidence and gates nothing: a forward residual within
tolerance already passes it, since every tail norm is at least 0.

Each distance is evaluated once.  Each step pair d(x, Tx), d(Tx, x) (the
first is the envelope's d1), and the residual pair of the final point and a
fresh ``T x_N``, is one paired evaluation with one batched norm.  The
observed tails d(x_p, x_N) and d(x_N, x_p) come from one validated stack of
the orbit: the column and the row of ``metrics.distance_norm_table`` at
x_N.  All of these are the values of ``norm(eval_metric(...))`` bit for
bit.  The lower-semicontinuity check reads G from the step list:
G(x_i) = d(x_i, x_{i+1}) is the i-th forward step for i < N, and G(x_N) is
the forward residual, so the check applies T to no point again.

The solve runs under the certificate's own map and metric spec.  An
orbital certificate that ``contraction.verify`` (or the search) built also
keeps the orbit it checked in memory, its validated stack and its forward
step payloads d(o_i, o_{i+1}) (``contraction.CheckedOrbit``), and only such
a certificate has one, so it is an orbit of the solve's own map, metric and
forward-only regime.  From a seed equal to its row 0 bit for bit, the solve
takes the orbit as a prefix before its one mapping loop, up to the first
stored forward norm at or below tolerance (or ``max_iter``, or the last
row).  Its forward norms and d1 come from the stored payloads, its reverse
steps from one paired evaluation, and a solve that stops inside it reads
its tails from a view of the stack.  These are the payloads the step pairs
would give, so the report is the same as without the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .algebra import (
    AlgebraElement,
    NormKind,
    NotPositive,
    QuasifixError,
    batch_norm,
    is_positive,
    norm,
)
from .contraction import CertificateInvalid, CheckedOrbit, ContractionCertificate, Regime
from .convergence import lsc_holds
from .metrics import (
    MetricSpec,
    _element,
    _paired_on,
    _points,
    _rows,
    _tail_norms,
    distance_norm_table,
)


class RateNotLessThanOne(QuasifixError):
    """Geometric bounds need a contraction rate strictly below 1."""


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 1000
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:  # NaN included
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

    def rows(self, bounds: tuple[float, ...] | None = None) -> list[list]:
        """CSV rows, header first: per iterate x_n (an array's sup norm), the
        step norms into it and ``bounds[n]``, with "" where there is none."""
        rows: list[list] = [["n", "x_n", "fwd_step_norm", "bwd_step_norm", "bound_p"]]
        for n, pt in enumerate(self.points):
            xval = float(np.max(np.abs(pt))) if isinstance(pt, np.ndarray) else pt
            fwd = self.fwd_step_norms[n - 1] if n >= 1 else ""
            bwd = self.bwd_step_norms[n - 1] if n >= 1 else ""
            bound = bounds[n] if bounds is not None and n < len(bounds) else ""
            rows.append([n, xval, fwd, bwd, bound])
        return rows


@dataclass(frozen=True)
class SolverReport:
    """A solve under ``cert``, whose rate, map and metric the report's JSON
    records."""

    fixed_point: Any
    iterations: int
    converged: bool
    max_iter_exceeded: bool
    residual_forward: float
    residual_backward: float
    cert: ContractionCertificate
    predicted_bounds: tuple[float, ...]
    observed_tail: tuple[float, ...]
    predicted_bounds_rev: tuple[float, ...] | None
    observed_tail_rev: tuple[float, ...]
    bound_envelope_ok: bool
    lsc_check: bool
    fixed_point_certified: bool
    seed: Any
    trace: OrbitTrace

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
            "rate": self.cert.rate,
            "bound_mode": "one-sided" if self.cert.regime is Regime.TWO_STEP else "sandwich",
            "norm_kind": self.cert.metric.norm.value,
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
            "map": self.cert.map_spec.name,
            "metric": self.cert.metric.name,
            "trace": {
                "points": [pt(p) for p in self.trace.points],
                "fwd_step_norms": list(self.trace.fwd_step_norms),
                "bwd_step_norms": list(self.trace.bwd_step_norms),
            },
        }


def apriori_envelope(d1: AlgebraElement, rate: float,
                     count: int) -> tuple[float, ...]:
    """The geometric tail envelope B_p = ||d1^(1/2)||^2 * r^p / (1 - r) at
    p = 0 .. count - 1, for a positive first step distance ``d1`` and a
    contraction rate ``r = rate`` in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise RateNotLessThanOne(f"rate {rate:.6f} is not inside [0, 1)")
    if not is_positive(d1):
        raise NotPositive("the first step distance must be positive")
    # ||d1^(1/2)||^2 = ||d1|| for positive d1, by the C*-identity
    head = norm(d1, NormKind.OPERATOR)
    return tuple(head * rate ** p / (1.0 - rate) for p in range(count))


def _checked_orbit(cert: ContractionCertificate, seed: Any) -> CheckedOrbit | None:
    """The orbit the certificate checked, when its row 0 is ``seed`` as a
    float array bit for bit (so -0.0 is not 0.0); otherwise None, and the
    solve maps every iterate itself.  No map is applied here."""
    orbit = cert.orbit
    if orbit is None:
        return None
    try:
        x = np.asarray(seed, dtype=float)
    except (TypeError, ValueError):
        return None
    row = orbit.points[0]
    return orbit if x.shape == row.shape and x.tobytes() == row.tobytes() else None


def _step_pair(metric: MetricSpec, x: Any, y: Any) -> np.ndarray:
    """The payloads of d(x, y) and d(y, x): one stack, one paired
    evaluation."""
    return _paired_on(metric, _points(metric, [x, y]), slice(None),
                      slice(None, None, -1))


def picard_solve(cert: ContractionCertificate, seed: Any,
                 cfg: SolverConfig = SolverConfig()) -> SolverReport:
    """Iterate x <- T(x) from ``seed``, with T the certificate's map, until
    the step distance in its metric falls below tolerance.

    Also evaluates the tail envelope at every recorded index and the
    lower-semicontinuity check at the final point, and reports whether the
    fixed point is certified under the certificate's regime (see the module
    docstring).  A certificate with violations or of no sample is refused
    with ``CertificateInvalid``.
    """
    if not cert.valid:
        raise CertificateInvalid(
            f"certificate has {len(cert.violations)} recorded violations")
    if cert.samples_checked < 1:
        raise CertificateInvalid("certificate checked no samples")
    if cert.rate >= 1.0:
        raise RateNotLessThanOne(f"certificate rate {cert.rate:.6f} is not below 1")
    map_spec, metric = cert.map_spec, cert.metric
    display = metric.norm
    forward_only = not cert.regime.is_global

    # the checked orbit as a prefix: forward-only, so the first forward norm
    # at or below tol, which the stored payloads give, ends the solve there
    orbit = _checked_orbit(cert, seed)
    points = [seed]  # the caller's seed object, not row 0's float
    fwd_steps: list[float] = []
    bwd_steps: list[float] = []
    converged = False
    if orbit is not None:
        fwd_steps = batch_norm(metric.codomain, orbit.steps[:cfg.max_iter], display).tolist()
        n = next((i + 1 for i, f in enumerate(fwd_steps) if f <= cfg.tol), len(fwd_steps))
        del fwd_steps[n:]
        converged = fwd_steps[-1] <= cfg.tol
        bwd_steps = batch_norm(metric.codomain, _paired_on(
            metric, orbit.points, slice(1, n + 1), slice(None, n)), display).tolist()
        d1 = orbit.steps[:1]  # a forward-only envelope reads no reverse d1
        points += _rows(orbit.points[1:n + 1])

    while not converged and len(fwd_steps) < cfg.max_iter:
        current = points[-1]
        nxt = map_spec.apply(current)
        pair = _step_pair(metric, current, nxt)
        fwd, bwd = batch_norm(metric.codomain, pair, display).tolist()
        if not fwd_steps:  # the envelope's d1, in both orders
            d1 = pair
        fwd_steps.append(fwd)
        bwd_steps.append(bwd)
        points.append(nxt)
        converged = fwd <= cfg.tol and (forward_only or bwd <= cfg.tol)

    fixed_point = points[-1]
    iterations = len(points) - 1
    residual_forward, residual_backward = batch_norm(
        metric.codomain, _step_pair(metric, fixed_point, map_spec.apply(fixed_point)),
        display).tolist()

    # tail envelope: d(T^p x, x_N) against the d(x, Tx) budget, and the
    # reversed order against d(Tx, x); the reversed chain is only promised
    # by the global sandwich regimes.
    inside = orbit is not None and len(points) <= len(orbit.points)
    stack = orbit.points[:len(points)] if inside else _points(metric, points)
    observed, observed_rev = (tuple(t.tolist()) for t in
                              _tail_norms(metric, stack, NormKind.OPERATOR))
    predicted = apriori_envelope(_element(metric, d1[0]), cert.rate, iterations)
    predicted_rev = (None if forward_only
                     else apriori_envelope(_element(metric, d1[1]), cert.rate, iterations))
    envelope_ok = all(o <= b + cfg.tol for o, b in zip(observed, predicted)) and (
        predicted_rev is None
        or all(o <= b + cfg.tol for o, b in zip(observed_rev, predicted_rev)))

    # G(x_i) = d(x_i, T x_i) over the orbit's trailing half, x_N included
    half = len(points) // 2
    lsc = lsc_holds(residual_forward, fwd_steps[half:] + [residual_forward], cfg.tol)
    certified = (converged and residual_forward <= cfg.tol
                 and (forward_only or residual_backward <= cfg.tol))

    return SolverReport(
        fixed_point=fixed_point, iterations=iterations, converged=converged,
        max_iter_exceeded=not converged, residual_forward=residual_forward,
        residual_backward=residual_backward, cert=cert,
        predicted_bounds=predicted, observed_tail=observed,
        predicted_bounds_rev=predicted_rev, observed_tail_rev=observed_rev,
        bound_envelope_ok=envelope_ok, lsc_check=lsc,
        fixed_point_certified=certified, seed=seed,
        trace=OrbitTrace(tuple(points), tuple(fwd_steps), tuple(bwd_steps)))


def uniqueness_probe(cert: ContractionCertificate, seeds: list,
                     cfg: SolverConfig = SolverConfig()) -> float:
    """Solve under ``cert`` from every seed and return the largest pairwise
    distance norm, in the certificate's metric.

    Only a forward-global certificate carries the uniqueness argument, so
    any other regime is refused.  The spread is taken over both argument
    orders of every pair of fixed points; callers typically assert it stays
    within twice the solver tolerance.
    """
    if cert.regime is not Regime.FORWARD_GLOBAL:
        raise CertificateInvalid(
            "uniqueness needs a forward-global certificate; "
            f"got {cert.regime.value}")
    results = [picard_solve(cert, seed, cfg).fixed_point for seed in seeds]
    table = distance_norm_table(cert.metric, results, results).tolist()
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            spread = max(spread, table[i][j], table[j][i])
    return spread
