"""Forward/backward convergence and Cauchy classification for sequences.

In an asymmetric space the two argument orders of the distance are genuinely
different, so a sequence gets four separate verdicts: forward and backward
convergence toward a candidate limit, and forward and backward Cauchy
behaviour of its tail.  Thresholds are scalar: the order-interval condition
"distance below eps * I" reduces to a norm bound for every catalog codomain,
and that is the implemented reading.

Verdicts are evidence over a finite window, not proofs; every verdict
records the tail data it was derived from, and keeps the candidate's
distances to every point.

``classify`` is the one pass over a sequence: it validates the points and
the candidate once, as one stack (``metrics._points``), takes the
candidate's distances in both argument orders from ``metrics._tail_norms``
on that stack, and the window's from one table of the tail against itself.
The values are the one-pair ``distance_norm`` values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .algebra import QuasifixError, batch_norm
from .maps import MapSpec
from .metrics import MetricSpec, _kernel, _norms, _points, _tail_norms, paired_payloads


class WindowTooLarge(QuasifixError):
    """The inspection window does not fit inside the sequence."""


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConvergenceVerdict:
    """The four verdicts and their evidence.  ``forward_dists[n]`` is the
    norm of d(candidate, x_n) and ``backward_dists[n]`` the swapped order,
    for every point of the sequence; they stay out of the JSON."""

    forward: Verdict
    backward: Verdict
    forward_cauchy: Verdict
    backward_cauchy: Verdict
    evidence: dict
    forward_dists: tuple[float, ...]
    backward_dists: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "forward": self.forward.value,
            "backward": self.backward.value,
            "forward_cauchy": self.forward_cauchy.value,
            "backward_cauchy": self.backward_cauchy.value,
            "evidence": self.evidence,
        }


def _verdict(value: float | None, eps: float) -> Verdict:
    if value is None:
        return Verdict.INCONCLUSIVE
    return Verdict.CONVERGES if value <= eps else Verdict.DIVERGES


def classify(seq: list, candidate: Any, metric: MetricSpec, eps: float,
             window: int) -> ConvergenceVerdict:
    """Four-way convergence verdict over the trailing ``window`` entries.

    Forward convergence requires every d(candidate, x_n) norm in the tail to
    stay at or below ``eps``; backward swaps the argument order.  The Cauchy
    verdicts come from all ordered index pairs inside the tail -- the upper
    triangle of the tail's table for d(x_p, x_n) with p < n, and of its
    transpose for d(x_n, x_p) -- and are INCONCLUSIVE when the window is
    too small to contain a pair.  ``eps`` must be a positive number, and
    the window must fit the sequence (``WindowTooLarge``) before any point
    is looked at.
    """
    if not eps > 0:  # NaN included
        raise ValueError("eps must be positive")
    if window < 1 or window >= len(seq):
        raise WindowTooLarge(
            f"window {window} does not fit a sequence of length {len(seq)}")
    stack = _points(metric, [*seq, candidate])
    # the candidate is the stack's last row: d(x_n, c) comes first, then d(c, x_n)
    bwd, fwd = (tuple(v.tolist()) for v in _tail_norms(metric, stack, metric.norm))
    tail = stack[len(seq) - window:-1]
    table = _norms(metric, _kernel(metric, tail[:, None], tail[None, :]), metric.norm)
    upper = np.triu_indices(window, 1)
    pair_fwd, pair_bwd = (float(t[upper].max()) if window > 1 else None
                          for t in (table, table.T))
    tail_fwd, tail_bwd = fwd[-window:], bwd[-window:]
    maxima = (max(tail_fwd), max(tail_bwd), pair_fwd, pair_bwd)
    evidence = {
        "eps": eps,
        "window": window,
        "length": len(seq),
        "tail_forward_max": maxima[0],
        "tail_backward_max": maxima[1],
        "pair_forward_max": pair_fwd,
        "pair_backward_max": pair_bwd,
        "tail_forward": list(tail_fwd),
        "tail_backward": list(tail_bwd),
    }
    return ConvergenceVerdict(*(_verdict(m, eps) for m in maxima), evidence, fwd, bwd)


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
