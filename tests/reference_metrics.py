"""One-pair catalog formulas: the reference oracle of the batched metric kernel.

``reference_eval_metric`` writes each catalog metric's formula for a single
pair of points with Python floats, as ``metrics.eval_metric`` once did.  The
library keeps each formula once, in ``metrics._kernel``; the property tests hold every batched
form (the component table, paired payloads, norm tables, the sweep, the
certificate tables and the solver's step norms) to these formulas bit for
bit, and to the exceptions they raise.

The multiplication-operator symbol is ``reference_mult_op_values``, the
library kernel's body as it was before the kernel wrote its result into
the array of differences, so the in-place kernel is held to an array
computed apart from it.  ``reference_distance_norm`` takes the one-element
norm of ``reference_algebra``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from quasifix.algebra import AlgebraElement, NormKind, diag2, scalar
from quasifix.metrics import (
    MAT2_SPLIT,
    MAT2_SPLIT_SCALED,
    MULT_OP,
    PERIODIC_FN,
    SCALAR_BACKWARD_ONE,
    SCALAR_FORWARD_ONE,
    DomainMismatch,
    MetricSpec,
    _require_fn_point,
)

from reference_algebra import reference_norm

_OVERFLOW = "distance overflows: the points are too far apart"


def _require_real_point(value: Any) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise DomainMismatch("points must be finite reals")
    return x


def _finite(value: float) -> float:
    """``value`` if it is a finite distance component, else DomainMismatch."""
    if not math.isfinite(value):
        raise DomainMismatch(_OVERFLOW)
    return value


def reference_mult_op_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symbol of the multiplication-operator distance between two arrays of
    finite samples (inf, without a warning, where a difference overflows)."""
    with np.errstate(over="ignore"):
        d = np.subtract(f, g)
    out = np.abs(d)
    np.multiply(out, 0.5, out=out, where=d > 0)
    return out


def reference_eval_metric(spec: MetricSpec, x: Any, y: Any) -> AlgebraElement:
    """The metric at an ordered pair of points, one formula per metric."""
    if spec.swap_args:
        x, y = y, x
    if spec.name in (MAT2_SPLIT, MAT2_SPLIT_SCALED):
        a, b = _require_real_point(x), _require_real_point(y)
        beta = spec.beta if spec.name == MAT2_SPLIT_SCALED else 1.0
        if a >= b:
            return diag2(_finite(a - b), 0.0)
        return diag2(0.0, _finite(beta * (b - a)))
    if spec.name == PERIODIC_FN:
        a, b = _require_real_point(x), _require_real_point(y)
        t = spec.grid
        # the samples are monotone in t: check the largest one (the last
        # when x >= y, else the first) before computing them all
        if a >= b:
            _finite((a - b) * float(t[-1]))
            values = (a - b) * t
        else:
            # the product first; where it passes the float range, the
            # quotient (period - t) / period first
            values = [_finite((b - a) * r / spec.period if math.isfinite((b - a) * r)
                              else (b - a) * (r / spec.period))
                      for r in (spec.period - t).tolist()]
        return spec._sampled(values)
    if spec.name == SCALAR_FORWARD_ONE:
        a, b = _require_real_point(x), _require_real_point(y)
        return scalar(_finite(b - a) if b >= a else 1.0)
    if spec.name == SCALAR_BACKWARD_ONE:
        a, b = _require_real_point(x), _require_real_point(y)
        return scalar(_finite(a - b) if a >= b else 1.0)
    if spec.name == MULT_OP:
        values = reference_mult_op_values(_require_fn_point(spec, x),
                                          _require_fn_point(spec, y))
        if not np.all(np.isfinite(values)):
            raise DomainMismatch(_OVERFLOW)
        return spec._sampled(values)
    raise ValueError(f"unknown metric {spec.name!r}")


def reference_distance_norm(spec: MetricSpec, x: Any, y: Any,
                            kind: NormKind | None = None) -> float:
    """Norm of the reference d(x, y), in ``kind`` (by default the metric's own)."""
    return reference_norm(reference_eval_metric(spec, x, y),
                          spec.norm if kind is None else kind)
