"""The exhaustive triangle sweep: the reference oracle of the screened one.

``reference_sweep`` is ``metrics._sweep`` with the triangle step taken over
every ordered triple, one x at a time, as the sweep did before it screened
the pairs (x, y) with the table's min-plus square, with the positivity and
identity checks reading every component, and with the asymmetry witness
taken from the whole table of gaps at once; ``reference_check_axioms``
is ``metrics.check_axioms`` with that sweep.  The property tests hold the
screened sweep's reports to them field for field, with every ``lhs`` and
``rhs`` value bit for bit, on catalog tables and on hand-built tables with
NaN, negative and tolerance-edge components.

``reference_screen`` is the min-plus screen on every component with no
margin, which the sweep runs for every metric but ``periodic-fn``; the
property tests hold that metric's screen on two components to flag every
pair this one flags.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from quasifix import metrics
from quasifix.algebra import OrderKind
from quasifix.metrics import AxiomReport, MetricSpec


@np.errstate(over="ignore")
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
        tolr = tol * (1.0 + np.abs(rhs).max(axis=-1, keepdims=True)) if tol else 0.0
        fails = np.any(rhs - lhs < -tolr, axis=-1)
        if spec.order is OrderKind.ENTRYWISE:
            fails |= np.any(lhs < -tol, axis=-1)
        for j, k in np.argwhere(fails):
            violations.append(
                {"x": pts[i], "y": pts[j], "z": pts[k],
                 "lhs": table[i, j].tolist(), "rhs": rhs[j, k].tolist()})
    return violations


@np.errstate(over="ignore")
def reference_screen(spec: MetricSpec, table: np.ndarray, tol: float) -> np.ndarray:
    """flagged[i, j]: whether some component of the fmin over every z of
    d(x_i, z) + d(z, x_j) lies more than ``tol`` below d(x_i, x_j), or, for
    the entrywise order, d(x_i, x_j) has a component below -tol."""
    low = np.reshape([np.fmin.reduce(row[:, None, :] + table, axis=0) for row in table],
                     table.shape)
    flagged = np.any(low - table < -tol, axis=-1)
    if spec.order is OrderKind.ENTRYWISE:
        flagged |= np.any(table < -tol, axis=-1)
    return flagged


def reference_pair_violations(pts: Any, table: np.ndarray,
                              tol: float) -> tuple[list[dict], list[dict]]:
    """The positivity and the identity violations of the component table,
    from every component of every pair."""
    n = len(pts)
    min_comp = table.min(axis=-1)
    positivity = [{"x": pts[i], "y": pts[j], "min_component": float(min_comp[i, j])}
                  for i, j in np.argwhere(min_comp < -tol)]
    diag_nonzero = np.abs(table[np.arange(n), np.arange(n)]).max(axis=-1)
    identity = [{"x": pts[i], "y": pts[i], "kind": "nonzero-at-diagonal",
                 "max_component": float(diag_nonzero[i])}
                for (i,) in np.argwhere(diag_nonzero != 0.0)]
    norms = np.abs(table).max(axis=-1)
    identity += [{"x": pts[i], "y": pts[j], "kind": "zero-at-distinct-points",
                  "max_component": float(norms[i, j])}
                 for i, j in np.argwhere((norms <= tol) & ~np.eye(n, dtype=bool))]
    return positivity, identity


def reference_asymmetry_witness(pts: Any, table: np.ndarray, tol: float) -> tuple | None:
    """The first pair i < j, in row-major order, whose two distances differ
    by more than ``tol`` in some component, from the whole table of gaps."""
    gap = np.abs(table - np.swapaxes(table, 0, 1)).max(axis=-1)
    for i, j in np.argwhere(np.triu(gap > tol, k=1))[:1]:
        return pts[i], pts[j]
    return None


def reference_sweep(spec: MetricSpec, pts: Any, table: np.ndarray,
                    tol: float) -> AxiomReport:
    """``metrics._sweep`` with the exhaustive triangle step, and with the
    positivity and identity violations and the witness taken from the whole
    table."""
    report = metrics._sweep(spec, pts, table, tol)
    report.positivity_violations, report.identity_violations = \
        reference_pair_violations(pts, table, tol)
    report.triangle_violations = reference_triangle_violations(spec, pts, table, tol)
    report.asymmetry_witness = reference_asymmetry_witness(pts, table, tol)
    return report


def reference_check_axioms(spec: MetricSpec, points: list,
                           tol: float) -> AxiomReport:
    """``check_axioms`` with the exhaustive triangle step."""
    return reference_sweep(spec, *metrics._component_table(spec, points), tol)
