"""Forward/backward convergence and Cauchy classification for sequences.

In an asymmetric space the two argument orders of the distance are genuinely
different, so a sequence gets four separate verdicts: forward and backward
convergence toward a candidate limit, and forward and backward Cauchy
behaviour of its tail.  Thresholds are scalar: the order-interval condition
"distance below eps * I" reduces to a norm bound for every catalog codomain,
and that is the implemented reading.

Verdicts are evidence over a finite window, not proofs; every verdict
records the tail data it was derived from.

A trace takes its distances as rectangular tables through
``metrics.distance_norm_table``: the candidate against every point in both
argument orders, and the inspection window against itself.  The values are
the one-pair ``distance_norm`` values bit for bit, and the tables cover the
pairs the one-pair loop would evaluate, so they reject the same points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from .algebra import QuasifixError, batch_norm
from .maps import MapSpec
from .metrics import MetricSpec, distance_norm_table, paired_payloads


class WindowTooLarge(QuasifixError):
    """The inspection window does not fit inside the sequence."""


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SequenceTrace:
    """Distance data of a point sequence, ready for classification.

    ``forward_dists[n]`` is the norm of d(candidate, x_n), ``backward_dists``
    the swapped order; both are empty when no candidate was supplied.
    ``pair_dists`` holds (p, n, d(x_p, x_n), d(x_n, x_p)) norms for p < n
    inside the inspection window.
    """

    points: tuple
    metric_name: str
    forward_dists: tuple[float, ...]
    backward_dists: tuple[float, ...]
    pair_dists: tuple[tuple[int, int, float, float], ...]


@dataclass(frozen=True)
class ConvergenceVerdict:
    forward: Verdict
    backward: Verdict
    forward_cauchy: Verdict
    backward_cauchy: Verdict
    evidence: dict

    def to_json_dict(self) -> dict:
        return {
            "forward": self.forward.value,
            "backward": self.backward.value,
            "forward_cauchy": self.forward_cauchy.value,
            "backward_cauchy": self.backward_cauchy.value,
            "evidence": self.evidence,
        }


def trace(points: list, metric: MetricSpec, candidate: Any = None,
          window: int | None = None) -> SequenceTrace:
    """Compute the distance arrays a classification needs."""
    pts = tuple(points)
    fwd: tuple[float, ...] = ()
    bwd: tuple[float, ...] = ()
    if candidate is not None and pts:
        fwd = tuple(distance_norm_table(metric, [candidate], pts)[0].tolist())
        bwd = tuple(distance_norm_table(metric, pts, [candidate])[:, 0].tolist())
    pairs: tuple[tuple[int, int, float, float], ...] = ()
    if window is not None and window >= 2:
        idx = range(len(pts) - window, len(pts))
        tail = [pts[p] for p in idx]
        rows = distance_norm_table(metric, tail, tail).tolist()
        pairs = tuple((idx[i], idx[j], rows[i][j], rows[j][i])
                      for i in range(window) for j in range(i + 1, window))
    return SequenceTrace(pts, metric.name, fwd, bwd, pairs)


def classify(seq: list, candidate: Any, metric: MetricSpec, eps: float,
             window: int) -> ConvergenceVerdict:
    """Four-way convergence verdict over the trailing ``window`` entries.

    Forward convergence requires every d(candidate, x_n) norm in the tail to
    stay at or below ``eps``; backward swaps the argument order.  The Cauchy
    verdicts come from all ordered index pairs inside the tail and are
    INCONCLUSIVE when the window is too small to contain a pair.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if window < 1 or window >= len(seq):
        raise WindowTooLarge(
            f"window {window} does not fit a sequence of length {len(seq)}")
    data = trace(seq, metric, candidate, window)
    tail_fwd = data.forward_dists[-window:]
    tail_bwd = data.backward_dists[-window:]
    forward = Verdict.CONVERGES if max(tail_fwd) <= eps else Verdict.DIVERGES
    backward = Verdict.CONVERGES if max(tail_bwd) <= eps else Verdict.DIVERGES
    if data.pair_dists:
        pair_fwd = max(p[2] for p in data.pair_dists)
        pair_bwd = max(p[3] for p in data.pair_dists)
        forward_cauchy = Verdict.CONVERGES if pair_fwd <= eps else Verdict.DIVERGES
        backward_cauchy = Verdict.CONVERGES if pair_bwd <= eps else Verdict.DIVERGES
    else:
        pair_fwd = pair_bwd = None
        forward_cauchy = backward_cauchy = Verdict.INCONCLUSIVE
    evidence = {
        "eps": eps,
        "window": window,
        "length": len(seq),
        "tail_forward_max": max(tail_fwd),
        "tail_backward_max": max(tail_bwd),
        "pair_forward_max": pair_fwd,
        "pair_backward_max": pair_bwd,
        "tail_forward": list(tail_fwd),
        "tail_backward": list(tail_bwd),
    }
    return ConvergenceVerdict(forward, backward, forward_cauchy,
                              backward_cauchy, evidence)


def orbital_lsc_check(orbit: list, x0: Any, map_spec: MapSpec,
                      metric: MetricSpec, tol: float = 1e-9) -> bool:
    """Lower-semicontinuity probe of G(x) = d(x, Tx) along an orbit.

    Compares G at the candidate limit against the running infimum of G over
    the trailing half of the orbit.  A finite orbit can only estimate the
    liminf, so this is evidence with an explicit window, not a proof.
    """
    points = [x0, *orbit[len(orbit) // 2:]]
    pairs = paired_payloads(metric, points, [map_spec.apply(p) for p in points])
    g0, *tail = batch_norm(metric.codomain, pairs, metric.norm).tolist()
    return lsc_holds(g0, tail, tol)


def lsc_holds(g0: float, tail: list[float], tol: float) -> bool:
    """The lower-semicontinuity comparison of ``orbital_lsc_check``.

    ``g0`` is G at the candidate limit and ``tail`` holds G over the
    trailing half of the orbit; the liminf estimate is the least of them,
    and 0 for an empty tail.
    """
    return g0 <= (min(tail) if tail else 0.0) + tol
