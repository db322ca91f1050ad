"""One-element closed forms: the reference oracle of the batched algebra kernels.

The library defines each norm, the positive cone and both orders once, as
the batch kernels of ``quasifix.algebra``; ``norm``, ``is_positive`` and
``leq`` run them on a batch of one.  This module keeps the one-element forms
they replaced, written for a single element with ``math.hypot`` and Python
floats.  The property tests hold the library to them: bit for bit on
diagonal, sampled and scalar elements, within an ulp of the 2x2 eigenvalue
off the diagonal, and raising the same errors.

It also keeps the positive square root, the reference of the solver's
envelope head: ``apriori_envelope`` takes its head ||d1|| from the operator
norm of the first step distance.  For a positive d1 that is
||d1^(1/2)||^2, and the envelope-head tests hold the norm to that value
computed through this root, and both to the top eigenvalue of a positive
2x2 matrix.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from quasifix.algebra import (
    DEFAULT_TOL,
    MAT2,
    SCALAR,
    AlgebraElement,
    NormKind,
    NotPositive,
    NotSelfAdjoint,
    OrderKind,
    RealizationMismatch,
    _require_same_space,
    sub,
)


def _sym2_eigvals(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of a symmetric 2x2 matrix."""
    half_tr = 0.5 * m[0, 0] + 0.5 * m[1, 1]
    disc = math.hypot(0.5 * m[0, 0] - 0.5 * m[1, 1], m[0, 1])
    return half_tr - disc, half_tr + disc


def _root(square: Any, data: np.ndarray) -> float:
    """sqrt(square(data)), where a square of finite, non-zero data beyond the
    normal float range is taken on data / 2^e, 2^e just above max |data|
    (exact), and scaled back; non-finite data keep their inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = square(data)
    if not 2.0 ** -1022 <= sq < math.inf and data.any() and np.isfinite(data).all():
        _, e = math.frexp(float(np.abs(data).max()))
        try:
            return math.ldexp(math.sqrt(square(np.ldexp(data, -e))), e)
        except OverflowError:
            return math.inf
    return math.sqrt(max(sq, 0.0))


def _require_self_adjoint(a: AlgebraElement, tol: float) -> None:
    if a.realization == MAT2:
        skew = abs(a.data[0, 1] - a.data[1, 0])
        if skew > tol * (1.0 + float(np.max(np.abs(a.data)))):
            raise NotSelfAdjoint(f"matrix is not symmetric (skew {skew:.3e})")
    # sampled functions and scalars are real-valued, hence self-adjoint


def reference_norm(a: AlgebraElement, kind: NormKind = NormKind.OPERATOR) -> float:
    if a.realization == SCALAR:
        return abs(float(a.data))
    if kind is NormKind.ENTRY_SUM_SQUARES:
        return _root(lambda d: np.sum(d * d), a.data)
    if a.realization == MAT2:
        return _root(lambda m: _sym2_eigvals(m.T @ m)[1], a.data)
    return float(np.max(np.abs(a.data)))


def min_spectrum(a: AlgebraElement, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue (mat2) or smallest sample/value otherwise.

    Requires a self-adjoint input; the matrix check allows skew up to
    ``tol`` relative to the largest entry.
    """
    _require_self_adjoint(a, tol)
    if a.realization == MAT2:
        sym = 0.5 * a.data + 0.5 * a.data.T
        with np.errstate(over="ignore"):  # beyond the float range, -inf
            lo, _ = _sym2_eigvals(sym)
        return lo
    return float(np.min(a.data)) if a.data.ndim else float(a.data)


def reference_is_positive(a: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """True iff the element lies in the positive cone, up to ``tol``."""
    return min_spectrum(a, tol) >= -tol


def reference_leq(a: AlgebraElement, b: AlgebraElement,
                  order: OrderKind = OrderKind.POSITIVE_CONE,
                  tol: float = DEFAULT_TOL) -> bool:
    """Partial-order comparison ``a <= b`` in the chosen order."""
    _require_same_space(a, b)
    if order is OrderKind.ENTRYWISE:
        if a.realization != MAT2:
            raise RealizationMismatch("entrywise order is defined for mat2 only")
        return bool(np.all(b.data >= a.data - tol) and np.all(a.data >= -tol))
    _require_self_adjoint(a, tol)
    _require_self_adjoint(b, tol)
    return reference_is_positive(sub(b, a), tol)


def _sym2_rotation(m: np.ndarray) -> tuple[float, float]:
    """Cosine/sine of the rotation whose first column is the eigenvector
    of the *high* eigenvalue."""
    theta = 0.5 * math.atan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])
    return math.cos(theta), math.sin(theta)


def sqrt_positive(a: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Positive square root of a positive element.

    Matrices go through the closed-form eigendecomposition; sampled
    functions and scalars take pointwise roots.  Eigenvalues/samples in
    ``[-tol, 0)`` are clipped to zero.
    """
    if not reference_is_positive(a, tol):
        raise NotPositive("square root requires a positive element")
    if a.realization == MAT2:
        sym = 0.5 * a.data + 0.5 * a.data.T
        lo, hi = _sym2_eigvals(sym)
        c, s = _sym2_rotation(sym)
        s_hi = math.sqrt(max(hi, 0.0))
        s_lo = math.sqrt(max(lo, 0.0))
        v_hi = np.array([c, s])
        v_lo = np.array([-s, c])
        root = s_hi * np.outer(v_hi, v_hi) + s_lo * np.outer(v_lo, v_lo)
        return AlgebraElement(MAT2, root)
    return AlgebraElement(a.realization, np.sqrt(np.clip(a.data, 0.0, None)), a.grid)
