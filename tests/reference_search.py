"""Plain bisection for the smallest certifying scalar: the reference oracle.

``plain_search`` is ``contraction.search_scalar_coefficient`` without the
closed-form threshold: every bisection midpoint runs the exact order check
of the verification core.  The property tests hold the guided search to it
bit for bit.  It reaches the core through the module, so a test that
replaces ``contraction._tables`` feeds both searches the same tables.
"""

from __future__ import annotations

from typing import Any

from quasifix import contraction
from quasifix.algebra import NotPositive, norm
from quasifix.contraction import (
    BISECTION_STEPS,
    SEARCH_CAP_MARGIN,
    CoefficientNormTooLarge,
    ContractionCertificate,
    NotInCommutant,
    Regime,
)
from quasifix.maps import MapSpec
from quasifix.metrics import MetricSpec, codomain_scalar


def plain_search(map_spec: MapSpec, metric: MetricSpec, regime: Regime, *,
                 points: Any = None, seed: Any = None,
                 orbit_len: int = 30,
                 tol: float = 1e-9) -> ContractionCertificate | None:
    """The scalar search with the exact check at every bisection midpoint."""
    if regime is Regime.TWO_STEP:
        cap = 0.5
    else:
        cap = (1.0 - SEARCH_CAP_MARGIN) / norm(codomain_scalar(metric, 1.0),
                                               metric.norm)
    tables = contraction._tables(regime, map_spec, metric, points, seed, orbit_len)
    _, lhs, base, _ = tables
    try:
        contraction._gate(regime, metric, codomain_scalar(metric, cap))
    except (CoefficientNormTooLarge, NotPositive, NotInCommutant):
        return None

    def holds(c: float) -> bool:
        a = codomain_scalar(metric, c)
        return not contraction._failures(regime, metric, a, lhs, base, tol).any()

    if holds(0.0):
        c = 0.0
    elif holds(cap):
        lo, c = 0.0, cap
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + c)
            if holds(mid):
                c = mid
            else:
                lo = mid
    else:
        return None
    return contraction._certificate(regime, map_spec, metric,
                                    codomain_scalar(metric, c), tables, seed, tol)
