"""Picard iteration with geometric a-priori error envelopes.

The iteration x, Tx, T^2 x, ... runs under a contraction certificate, and
the certificate's regime picks the rate model; no caller chooses it:

* the sandwich regimes (forward-global, backward-global, orbital) contract
  step distances at rate ``r = ||a||^2`` (operator norm);
* the two-step regime contracts at rate ``r = ||h||`` with
  ``h = a (I - a)^-1``, and its report calls the bound one-sided.

The envelope ``apriori_envelope(d1, r, count)`` bounds d(T^p x, T^(n+1) x)
with ``d1 = d(x, Tx)``.  The global regimes also cover the reversed order,
with ``d1 = d(Tx, x)``; orbital and two-step certificates cover only the
(old, new) order.

Envelopes always use the operator norm because the chain they come from
needs the C*-identity; stopping and residual norms use the metric's display
norm.  Global certificates require both argument orders of the step
distance to fall below tolerance before stopping; orbital and two-step
certificates promise forward convergence only, so they stop on the
(old, new) order and additionally gate fixed-point acceptance on the
lower-semicontinuity check of G(x) = d(x, Tx).

Each distance is evaluated once.  Each step pair d(x, Tx), d(Tx, x) (the
first is the envelope's d1) is one paired evaluation with one batched norm.
The observed tails d(x_p, x_N) and d(x_N, x_p) come from validated stacks
of the orbit, none stacked twice: the column and the row of
``metrics.distance_norm_table`` at x_N.  All of these are the values of
``norm`` bit for bit.  The residual pair at the final point is two one-pair
``eval_metric`` values of a fresh ``T x_N``.  The lower-semicontinuity gate
reads G from the step list: G(x_i) = d(x_i, x_{i+1}) is the i-th forward
step for i < N, and G(x_N) is the forward residual, so the gate applies T
to no point again.

An orbital certificate from ``contraction.verify`` (or the search) keeps
the orbit it checked in memory: its validated stack and its forward step
payloads d(o_i, o_{i+1}) (``contraction.CheckedOrbit``; not part of the
certificate's JSON, so a certificate read from a file has none).  When the
solve starts from that orbit's seed, bit for bit, under the same metric,
and ``T(seed)`` is its row 1 bit for bit, the loop takes the rows as known
iterates before it applies T: their forward norms and d1 come from the
stored payloads, their reverse steps from one paired evaluation after the
loop, and their tails from the stack itself.  These are the payloads the
step pairs would give, so the report is the same as without the orbit.
The residual still applies T afresh, so a row that T does not map to the
next one cannot certify a point that T does not fix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Any

import numpy as np

from .algebra import AlgebraElement, NormKind, NotPositive, batch_norm, is_positive, norm
from .contraction import CheckedOrbit, ContractionCertificate, Regime
from .convergence import lsc_holds
from .maps import MapSpec
from .metrics import (
    MetricSpec,
    _element,
    _paired_on,
    _points,
    _rows,
    _tail_norms,
    distance_norm_table,
    eval_metric,
)


class CertificateInvalid(Exception):
    """The supplied certificate cannot back this solve."""


class RateNotLessThanOne(Exception):
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
    bound_mode: str  # "sandwich", or "one-sided" for two-step
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
            "bound_mode": self.bound_mode,
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


def _certificate_rate(cert: ContractionCertificate) -> float:
    """The step rate the certificate's regime proves: ||h|| for two-step,
    ||a||^2 (operator norm) for the sandwich regimes."""
    if cert.regime is Regime.TWO_STEP:
        if cert.h_norm is None:
            raise CertificateInvalid("the two-step certificate carries no h_norm")
        return cert.h_norm
    return norm(cert.a, NormKind.OPERATOR) ** 2


#: The regimes that promise forward convergence only.
_FORWARD_ONLY = (Regime.ORBITAL, Regime.TWO_STEP)


def _checked_orbit(map_spec: MapSpec, metric: MetricSpec, seed: Any,
                   cert: ContractionCertificate) -> CheckedOrbit | None:
    """The orbit the certificate checked, when the solve may take its rows
    as known iterates: under a forward-only regime (the loop then stops on
    forward steps alone), in the same metric, from a seed equal to its row 0
    bit for bit, whose image ``map_spec.apply(seed)`` equals its row 1 bit
    for bit.  Otherwise None, and the solve maps every iterate itself."""
    orbit = cert.orbit
    if (orbit is None or cert.regime not in _FORWARD_ONLY
            or orbit.metric != metric
            or not _same_bits(seed, orbit.points[0])
            or not _same_bits(map_spec.apply(seed), orbit.points[1])):
        return None
    return orbit


def _same_bits(point: Any, row: np.ndarray) -> bool:
    """Whether ``point`` as a float array is ``row``, bit for bit (so -0.0
    is not 0.0)."""
    try:
        x = np.asarray(point, dtype=float)
    except (TypeError, ValueError):
        return False
    return x.shape == row.shape and x.tobytes() == row.tobytes()


def picard_solve(map_spec: MapSpec, metric: MetricSpec, seed: Any,
                 cert: ContractionCertificate,
                 cfg: SolverConfig = SolverConfig()) -> SolverReport:
    """Iterate x <- T(x) until the step distance falls below tolerance.

    Also evaluates the geometric tail envelope at every recorded index and
    the lower-semicontinuity gate at the final point, and reports whether
    the fixed point is certified under the certificate's regime.  The first
    iterates come from the orbit the certificate checked, when it carries
    one that starts at ``seed`` under this map and metric (see the module
    docstring); the report is the same as without it.  A certificate with
    violations or of no sample is refused with ``CertificateInvalid``.
    """
    if not cert.valid:
        raise CertificateInvalid(
            f"certificate has {len(cert.violations)} recorded violations")
    if cert.samples_checked < 1:
        raise CertificateInvalid("certificate checked no samples")
    rate = _certificate_rate(cert)
    if rate >= 1.0:
        raise RateNotLessThanOne(f"certificate rate {rate:.6f} is not below 1")
    display = metric.norm
    forward_only = cert.regime in _FORWARD_ONLY

    orbit = _checked_orbit(map_spec, metric, seed, cert)
    known = 0 if orbit is None else min(len(orbit.steps), cfg.max_iter)
    if known:
        rows = _rows(orbit.points)
        known_fwd = batch_norm(metric.codomain, orbit.steps[:known], display).tolist()
    points = [seed]
    fwd_steps: list[float] = []
    bwd_steps: list[float] = []  # of the mapped steps; the known ones follow the loop
    converged = False
    for i in range(cfg.max_iter):
        if i < known:  # forward-only: the reverse order does not stop the loop
            nxt, fwd = rows[i + 1], known_fwd[i]
        else:
            current = points[-1]
            nxt = map_spec.apply(current)
            pair = _paired_on(metric, _points(metric, [current, nxt]),
                              slice(None), slice(None, None, -1))
            fwd, bwd = batch_norm(metric.codomain, pair, display).tolist()
            if not i:  # the envelope's d1, in both orders
                d1 = pair
            bwd_steps.append(bwd)
        fwd_steps.append(fwd)
        points.append(nxt)
        if fwd <= cfg.tol and (forward_only or bwd <= cfg.tol):
            converged = True
            break

    fixed_point = points[-1]
    iterations = len(points) - 1
    after = map_spec.apply(fixed_point)
    residual_forward = norm(eval_metric(metric, fixed_point, after), display)
    residual_backward = norm(eval_metric(metric, after, fixed_point), display)

    # the known steps in the reverse order, as one paired evaluation whose
    # payloads are freed before the tails are formed, and the orbit as
    # stacks: the known rows as the certificate stacked them, and the mapped
    # points after them
    consumed = min(known, iterations)
    blocks = []
    if consumed:
        bwd_steps[:0] = batch_norm(metric.codomain, _paired_on(
            metric, orbit.points, slice(1, consumed + 1), slice(None, consumed)),
            display).tolist()
        d1 = orbit.steps[:1]  # a forward-only envelope reads no reverse d1
        blocks.append(orbit.points[:consumed + 1])
    mapped = points[consumed + 1:] if consumed else points
    if mapped:
        blocks.append(_points(metric, mapped))

    # tail envelope: d(T^p x, x_N) against the d(x, Tx) budget, and the
    # reversed order against d(Tx, x); the reversed chain is only promised
    # by the global sandwich regimes.
    observed, observed_rev = (tuple(t.tolist()) for t in
                              _tail_norms(metric, blocks, NormKind.OPERATOR))
    predicted = apriori_envelope(_element(metric, d1[0]), rate, iterations)
    predicted_rev = (None if forward_only
                     else apriori_envelope(_element(metric, d1[1]), rate, iterations))
    envelope_ok = all(o <= b + cfg.tol for o, b in zip(observed, predicted))
    if predicted_rev is not None:
        envelope_ok = envelope_ok and all(
            o <= b + cfg.tol for o, b in zip(observed_rev, predicted_rev))

    # G(x_i) = d(x_i, T x_i) over the orbit's trailing half, x_N included
    half = len(points) // 2
    lsc = lsc_holds(residual_forward, fwd_steps[half:] + [residual_forward], cfg.tol)
    if forward_only:
        certified = converged and residual_forward <= cfg.tol and lsc
    else:
        certified = (converged and residual_forward <= cfg.tol
                     and residual_backward <= cfg.tol)

    return SolverReport(
        fixed_point=fixed_point, iterations=iterations, converged=converged,
        max_iter_exceeded=not converged, residual_forward=residual_forward,
        residual_backward=residual_backward, rate=rate,
        bound_mode="one-sided" if cert.regime is Regime.TWO_STEP else "sandwich",
        norm_kind=display,
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
    results = [picard_solve(map_spec, metric, seed, cert, cfg).fixed_point
               for seed in seeds]
    table = distance_norm_table(metric, results, results).tolist()
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            spread = max(spread, table[i][j], table[j][i])
    return spread
