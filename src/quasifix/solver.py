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
(old, new) order.  A fixed point is certified when the solve converged,
its residual d(x_N, T x_N) is within tolerance, in both orders under a
global regime, no walked step fails the certificate's inequality, and the
observed tails keep within their envelopes.  A walked sample passes with
the relative tolerance tol (1 + ||rhs||) of ``contraction._failures``, and
an envelope holds with the absolute tolerance tol, so a coefficient a hair
below the true one passes every sample and still breaks the envelope of a
far seed; the envelope gate refuses that solve.  The
lower-semicontinuity check of G(x) = d(x, Tx) is reported as evidence and
gates nothing: a forward residual within tolerance already passes it, since
every tail norm is at least 0.

Each distance is evaluated once, in one pattern for every regime.  Each
step pair d(x, Tx), d(Tx, x) (the first step's gives the envelopes' d1),
and the residual pair of the final point and a fresh ``T x_N``, is one
validated stack of the two points, one paired evaluation of both orders and
one batched norm; the regime decides only which order the stop, the
residual gate and the reversed envelope read.  The points and the distances
go into two buffers that double as needed, so the orbit's stack and its
step distances (in the diagonal layout of ``metrics._paired_on``) are
never built again.  The observed tails d(x_p, x_N) and
d(x_N, x_p) come from that stack: the column and the row of
``metrics.distance_norm_table`` at x_N.  All of these are the values of
``norm(eval_metric(...))`` bit for bit.  The lower-semicontinuity check
reads G from the step list: G(x_i) = d(x_i, x_{i+1}) is the i-th forward
step for i < N, and G(x_N) is the forward residual, so the check applies T
to no point again.

The solve runs under the certificate's own map, metric and coefficient, and
checks its inequality on the samples (x_i, x_{i+1}), i < N, that it walks
(x_{N+1} = T x_N is the residual's image): ``contraction._orbit_tables``
makes the kept step distances the samples, and ``contraction._failures``
checks them at the solve's tolerance.  Every envelope rests on that
inequality along this orbit, so a failing sample voids the certification.
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
from .contraction import (
    CertificateInvalid,
    ContractionCertificate,
    Regime,
    _failures,
    _orbit_tables,
)
from .convergence import lsc_holds
from .metrics import (
    MetricSpec,
    _element,
    _layout,
    _paired_on,
    _points,
    _tail_norms,
    distance_norm_table,
)


#: Rows the solve's point and step buffers start with; they double as needed.
_WALK_ROWS = 16


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
    records.  ``failing_samples``, outside the JSON, counts the walked
    samples (x_i, x_{i+1}), i < ``iterations``, that fail its inequality."""

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
    failing_samples: int

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
    contraction rate ``r = rate`` in [0, 1).

    It assumes ||d(x_(n+1), x_(n+2))|| <= r ||d(x_n, x_(n+1))|| (operator
    norm) along the orbit with d1 = d(x_0, x_1), so that the steps from p
    on, and by the triangle inequality d(x_p, x_N), sum to at most B_p.
    The sandwich d(x_(n+1), x_(n+2)) <= a* d(x_n, x_(n+1)) a gives it with
    r = ||a||^2, and two-step's d(x_(n+1), x_(n+2)) <= a d(x_n, x_(n+2))
    with r = ||a (I - a)^-1||.  ``picard_solve`` checks that inequality on
    the steps it walks, up to its tolerance, and certifies no solve that
    fails it or whose observed tail exceeds B_p + tol.
    """
    if not 0.0 <= rate < 1.0:
        raise RateNotLessThanOne(f"rate {rate:.6f} is not inside [0, 1)")
    if not is_positive(d1):
        raise NotPositive("the first step distance must be positive")
    # ||d1^(1/2)||^2 = ||d1|| for positive d1, by the C*-identity
    head = norm(d1, NormKind.OPERATOR)
    return tuple(head * rate ** p / (1.0 - rate) for p in range(count))


def _put(buf: np.ndarray | None, n: int, rows: np.ndarray) -> np.ndarray:
    """``buf`` with ``rows`` written from its row ``n`` on: ``buf`` itself,
    or, when it is None or too short, a buffer of at least ``_WALK_ROWS``
    rows, twice as long as ``buf``, that holds its rows before ``n``."""
    if buf is None or n + len(rows) > len(buf):
        grown = np.empty((_WALK_ROWS if buf is None else 2 * len(buf), *rows.shape[1:]))
        if buf is not None:
            grown[:n] = buf[:n]
        buf = grown
    buf[n:n + len(rows)] = rows
    return buf


def picard_solve(cert: ContractionCertificate, seed: Any,
                 cfg: SolverConfig = SolverConfig()) -> SolverReport:
    """Iterate x <- T(x) from ``seed``, with T the certificate's map, until
    the step distance in its metric falls below tolerance.

    Also evaluates the tail envelope at every recorded index and the
    lower-semicontinuity check at the final point, and reports whether the
    fixed point is certified under the certificate's regime, on the
    certificate's inequality checked along the walked steps (see the module
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
    forward_only = not cert.regime.is_global

    # stack[i] is x_i validated; steps[i] holds d(x_i, x_(i+1)) and
    # d(x_(i+1), x_i).  A function point is kept as its stack row, so that
    # the map's own array is not held as well
    points = [seed]  # the caller's seed, then the walk's points
    stack = steps = None
    fwd_steps: list[float] = []
    bwd_steps: list[float] = []
    converged = False
    while True:
        n = len(fwd_steps)
        image = map_spec.apply(points[-1])
        new = [image] if n else [seed, image]  # the seed is checked with its image
        stack = _put(stack, n + 2 - len(new), _points(metric, new))
        pair = _paired_on(metric, stack[n:n + 2], slice(None), slice(None, None, -1))
        steps = _put(steps, n, pair[None])
        norms = batch_norm(_layout(metric.codomain), pair, metric.norm).tolist()
        if converged or n == cfg.max_iter:  # the residual pair of x_N and T x_N
            break
        fwd_steps.append(norms[0])
        bwd_steps.append(norms[1])
        points.append(image if stack.ndim == 1 else stack[n + 1])
        converged = norms[0] <= cfg.tol and (forward_only or norms[1] <= cfg.tol)

    fixed_point = points[-1]
    iterations = n
    stack, steps = stack[:n + 2], steps[:n + 1]
    reverse = steps[:, 1]
    residual_forward, residual_backward = norms

    # the walked samples (x_i, x_(i+1)), i < N, on the stack x_0 .. x_(N+1)
    lhs, base = _orbit_tables(cert.regime, metric, stack, steps[:, 0], reverse)
    failing = int(np.count_nonzero(_failures(cert.regime, metric, cert.a, lhs, base,
                                             cfg.tol)))

    # tail envelope: d(T^p x, x_N) against the d(x, Tx) budget, and the
    # reversed order against d(Tx, x); the reversed chain is only promised
    # by the global sandwich regimes.
    observed, observed_rev = (tuple(t.tolist()) for t in
                              _tail_norms(metric, stack[:-1], NormKind.OPERATOR))
    d1 = (steps[0, 0], reverse[0])
    predicted = apriori_envelope(_element(metric, d1[0]), cert.rate, iterations)
    predicted_rev = (None if forward_only
                     else apriori_envelope(_element(metric, d1[1]), cert.rate, iterations))
    envelope_ok = all(o <= b + cfg.tol for o, b in zip(observed, predicted)) and (
        predicted_rev is None
        or all(o <= b + cfg.tol for o, b in zip(observed_rev, predicted_rev)))

    # G(x_i) = d(x_i, T x_i) over the orbit's trailing half, x_N included
    half = len(points) // 2
    lsc = lsc_holds(residual_forward, fwd_steps[half:] + [residual_forward], cfg.tol)
    certified = (converged and not failing and envelope_ok
                 and residual_forward <= cfg.tol
                 and (forward_only or residual_backward <= cfg.tol))

    return SolverReport(
        fixed_point=fixed_point, iterations=iterations, converged=converged,
        max_iter_exceeded=not converged, residual_forward=residual_forward,
        residual_backward=residual_backward, cert=cert,
        predicted_bounds=predicted, observed_tail=observed,
        predicted_bounds_rev=predicted_rev, observed_tail_rev=observed_rev,
        bound_envelope_ok=envelope_ok, lsc_check=lsc,
        fixed_point_certified=certified, seed=seed,
        trace=OrbitTrace(tuple(points), tuple(fwd_steps), tuple(bwd_steps)),
        failing_samples=failing)


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
