"""The positive square root: the reference of the solver's envelope head.

``apriori_envelope`` takes its head ||d1|| from the operator norm of the
first step distance.  For a positive d1 that is ||d1^(1/2)||^2, and the
envelope-head tests hold the norm to that value computed through this root,
and both to the top eigenvalue of a positive 2x2 matrix.
"""

from __future__ import annotations

import math

import numpy as np

from quasifix.algebra import (
    DEFAULT_TOL,
    MAT2,
    AlgebraElement,
    NotPositive,
    _sym2_eigvals,
    is_positive,
)


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
    if not is_positive(a, tol):
        raise NotPositive("square root requires a positive element")
    if a.realization == MAT2:
        sym = 0.5 * (a.data + a.data.T)
        lo, hi = _sym2_eigvals(sym)
        c, s = _sym2_rotation(sym)
        s_hi = math.sqrt(max(hi, 0.0))
        s_lo = math.sqrt(max(lo, 0.0))
        v_hi = np.array([c, s])
        v_lo = np.array([-s, c])
        root = s_hi * np.outer(v_hi, v_hi) + s_lo * np.outer(v_lo, v_lo)
        return AlgebraElement(MAT2, root)
    return AlgebraElement(a.realization, np.sqrt(np.clip(a.data, 0.0, None)), a.grid)
