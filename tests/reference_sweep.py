"""The exhaustive triangle sweep: the reference oracle of the screened one.

``reference_sweep`` is ``metrics._sweep`` with the triangle step taken over
every ordered triple, one x at a time, as the sweep did before it screened
the pairs (x, y) with the table's min-plus square; ``reference_check_axioms``
is ``metrics.check_axioms`` with that sweep.  The property tests hold the
screened sweep's reports to them field for field, with every ``lhs`` and
``rhs`` value bit for bit, on catalog tables and on hand-built tables with
NaN, negative and tolerance-edge components.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from quasifix import metrics
from quasifix.algebra import OrderKind
from quasifix.metrics import AxiomReport, MetricSpec


def reference_triangle_violations(spec: MetricSpec, pts: Any, table: np.ndarray,
                                  tol: float) -> list[dict]:
    """Every failing triple of the component table, in (x, y, z) order."""
    violations = []
    n = len(pts)
    # triangle over all ordered triples (x, y, z), one x at a time: for
    # x = pts[i], lhs[j] = d(x, y_j) and rhs[j, k] = d(x, z_k) + d(z_k, y_j)
    table_t = np.swapaxes(table, 0, 1)
    for i in range(n):
        lhs = table[i][:, None, :]
        rhs = table[i][None, :, :] + table_t
        tolr = tol * (1.0 + np.abs(rhs).max(axis=-1, keepdims=True))
        fails = np.any(rhs - lhs < -tolr, axis=-1)
        if spec.order is OrderKind.ENTRYWISE:
            fails |= np.any(lhs < -tol, axis=-1)
        for j, k in np.argwhere(fails):
            violations.append(
                {"x": pts[i], "y": pts[j], "z": pts[k],
                 "lhs": table[i, j].tolist(), "rhs": rhs[j, k].tolist()})
    return violations


def reference_sweep(spec: MetricSpec, pts: Any, table: np.ndarray,
                    tol: float) -> AxiomReport:
    """``metrics._sweep`` with the exhaustive triangle step."""
    report = metrics._sweep(spec, pts, table, tol)
    report.triangle_violations = reference_triangle_violations(spec, pts, table, tol)
    return report


def reference_check_axioms(spec: MetricSpec, points: list,
                           tol: float) -> AxiomReport:
    """``check_axioms`` with the exhaustive triangle step."""
    return reference_sweep(spec, *metrics._component_table(spec, points), tol)
