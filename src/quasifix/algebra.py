"""Concrete realizations of a unital operator algebra.

Three realizations back the metric catalog: real 2x2 matrices, real-valued
functions sampled on a fixed grid, and plain scalars.  Elements are immutable
and every operation is a pure function, so values can be shared freely across
threads.  Norms, positivity, the partial orders and the ``(I - a)^-1``
resolvent are computed in closed form (2x2 eigenvalues from trace and
determinant); nothing here needs an iterative eigensolver.  Norms,
positivity and the orders are defined once, on batches of payloads.

Two norms are available because the matrix examples this library reproduces
use the entry-sum-of-squares (Frobenius) norm, which is *not* a C*-norm
(``||I|| = sqrt(2)``).  Operations that rely on the C*-identity always take
the operator norm; callers choose the display norm explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

MAT2 = "mat2"
SAMPLED = "sampled"
SCALAR = "scalar"

#: The batch layout of diagonal 2x2 payloads: the two diagonal entries of
#: each, shape (N, 2).  No element has it.  The batch operations take it
#: wherever they take ``MAT2``, and give what ``MAT2`` gives on the payloads
#: with zeros off the diagonal, bit for bit up to the sign of a zero entry:
#: each 2x2 closed form takes entry columns, and this layout passes zero
#: off-diagonal columns.
DIAG2 = "diag2"

#: Absolute tolerance on eigenvalues/samples when deciding positivity.
#: Eigensolvers routinely report -1e-16-scale noise on PSD inputs.
DEFAULT_TOL = 1e-9


class QuasifixError(Exception):
    """Base class of every error the package raises on purpose: an argument,
    point or certificate it refuses, or a file it cannot read or write.  The
    command line prints any of them as one ``error:`` line and exits 1."""


class AlgebraError(QuasifixError):
    """Base class for errors raised by algebra operations."""


class RealizationMismatch(AlgebraError):
    """Operands live in different realizations or on different grids."""


class NotSelfAdjoint(AlgebraError):
    """Operation requires a self-adjoint element."""


class NotPositive(AlgebraError):
    """Operation requires a positive element."""


class PreconditionNormTooLarge(AlgebraError):
    """Norm precondition of the resolvent inverse is violated."""


class ResolventInaccurate(AlgebraError, ArithmeticError):
    """The computed resolvent inverse fails its identity check."""


class NormKind(Enum):
    """Norm selector.

    OPERATOR is the C*-norm: largest singular value for matrices, sup of
    absolute samples for sampled functions, absolute value for scalars.
    ENTRY_SUM_SQUARES is the Frobenius-style root of summed squared entries.
    """

    OPERATOR = "operator"
    ENTRY_SUM_SQUARES = "entry-sum-squares"


class OrderKind(Enum):
    """Partial order selector.

    POSITIVE_CONE compares through the positive cone: ``a <= b`` iff ``b - a``
    has all eigenvalues (matrices) or samples (functions, scalars) above
    ``-tol``.  ENTRYWISE is the matrix-entry order ``b_i >= a_i >= 0`` and is
    defined for 2x2 matrices only.
    """

    POSITIVE_CONE = "cone"
    ENTRYWISE = "entrywise"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One element of a concrete realization.

    ``data`` holds the payload: shape (2, 2) for matrices, a 1-D sample
    vector for sampled functions (with ``grid`` giving the sample sites),
    and a 0-d array for scalars.  Arrays are copied and frozen on
    construction; all entries must be finite and grids strictly increasing
    with at least two points.
    """

    realization: str
    data: np.ndarray
    grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if self.realization == MAT2:
            if data.shape != (2, 2):
                raise ValueError(f"mat2 payload must be 2x2, got {data.shape}")
            if self.grid is not None:
                raise ValueError("mat2 elements carry no grid")
        elif self.realization == SAMPLED:
            if self.grid is None:
                raise ValueError("sampled elements need a grid")
            grid = _checked_grid(self.grid)
            if data.shape != grid.shape:
                raise ValueError("values and grid must have matching length")
            object.__setattr__(self, "grid", grid)
        elif self.realization == SCALAR:
            if data.shape != ():
                raise ValueError("scalar payload must be a single value")
            if self.grid is not None:
                raise ValueError("scalar elements carry no grid")
        else:
            raise ValueError(f"unknown realization {self.realization!r}")
        _set_payload(self, data)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return sub(self, other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return mul(self, other)

    def __repr__(self) -> str:
        if self.realization == SCALAR:
            return f"AlgebraElement(scalar {float(self.data)!r})"
        if self.realization == MAT2:
            return f"AlgebraElement(mat2 {self.data.tolist()!r})"
        return f"AlgebraElement(sampled, {self.data.size} points)"


def _checked_grid(grid: Any) -> np.ndarray:
    """``grid`` as a read-only float copy, if it can carry sampled elements."""
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be 1-D with at least two points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    grid.setflags(write=False)
    return grid


def _set_payload(a: AlgebraElement, data: np.ndarray) -> None:
    """Freeze ``data`` as the payload of ``a``, if all its entries are finite."""
    if not np.isfinite(data).all():
        raise ValueError("payload must be finite (no NaN/Inf)")
    data.setflags(write=False)
    object.__setattr__(a, "data", data)


def _sampled_on(grid: np.ndarray, values: Any) -> AlgebraElement:
    """The sampled element with ``values`` on ``grid``, a ``_checked_grid``
    result that the element shares as it is, without copying or checking it
    again.  The values are copied and checked as construction checks them.

    This skips ``AlgebraElement.__init__``, so it is for callers that hold
    one checked grid for many elements (a metric spec's grid).
    """
    data = np.array(values, dtype=float)
    if data.shape != grid.shape:
        raise ValueError("values and grid must have matching length")
    a = object.__new__(AlgebraElement)
    object.__setattr__(a, "realization", SAMPLED)
    object.__setattr__(a, "grid", grid)
    _set_payload(a, data)
    return a


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def mat2(m11: float, m12: float, m21: float, m22: float) -> AlgebraElement:
    return AlgebraElement(MAT2, np.array([[m11, m12], [m21, m22]]))


def diag2(d1: float, d2: float) -> AlgebraElement:
    return mat2(d1, 0.0, 0.0, d2)


def sampled(grid: Any, values: Any) -> AlgebraElement:
    return AlgebraElement(SAMPLED, np.asarray(values, dtype=float), np.asarray(grid, dtype=float))


def scalar(value: float) -> AlgebraElement:
    return AlgebraElement(SCALAR, np.asarray(float(value)))


def identity_like(a: AlgebraElement) -> AlgebraElement:
    if a.realization == MAT2:
        return AlgebraElement(MAT2, np.eye(2))
    return AlgebraElement(a.realization, np.ones_like(a.data), a.grid)


# ---------------------------------------------------------------------------
# closed-form 2x2 helpers
# ---------------------------------------------------------------------------

def _inv_mat2(m: np.ndarray) -> np.ndarray:
    """The adjugate over the determinant: not finite where ``m`` is singular
    or its determinant overflows."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def _require_same_space(a: AlgebraElement, b: AlgebraElement) -> None:
    _require_space(a, b.realization, b.grid)


def _require_space(a: AlgebraElement, realization: str,
                   grid: np.ndarray | None) -> None:
    """``RealizationMismatch`` unless ``a`` lives in ``realization``, on
    ``grid`` if that is ``SAMPLED``."""
    if a.realization != realization:
        raise RealizationMismatch(
            f"cannot combine {a.realization!r} with {realization!r}")
    if realization == SAMPLED and not np.array_equal(a.grid, grid):
        raise RealizationMismatch("sampled elements live on different grids")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Componentwise sum of two elements of the same realization."""
    _require_same_space(a, b)
    return AlgebraElement(a.realization, a.data + b.data, a.grid)


def sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _require_same_space(a, b)
    return AlgebraElement(a.realization, a.data - b.data, a.grid)


def scale(a: AlgebraElement, c: float) -> AlgebraElement:
    return AlgebraElement(a.realization, float(c) * a.data, a.grid)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product: matrix product for mat2, pointwise otherwise."""
    _require_same_space(a, b)
    if a.realization == MAT2:
        return AlgebraElement(MAT2, a.data @ b.data)
    return AlgebraElement(a.realization, a.data * b.data, a.grid)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Involution: transpose for matrices, identity for the real-valued rest."""
    if a.realization == MAT2:
        return AlgebraElement(MAT2, a.data.T.copy())
    return a


def norm(a: AlgebraElement, kind: NormKind = NormKind.OPERATOR) -> float:
    """``batch_norm`` of the one sample ``a``."""
    return float(batch_norm(a.realization, a.data[None], kind)[0])


def is_positive(a: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """True iff the element lies in the positive cone, up to ``tol``; see
    ``_in_cone``."""
    return bool(_in_cone(a.realization, a.data[None], np.array([tol], dtype=float))[0])


def leq(a: AlgebraElement, b: AlgebraElement,
        order: OrderKind = OrderKind.POSITIVE_CONE,
        tol: float = DEFAULT_TOL) -> bool:
    """Partial-order comparison ``a <= b`` in the chosen order: ``batch_leq``
    on the one pair."""
    _require_same_space(a, b)
    return bool(batch_leq(a.realization, a.data[None], b.data[None], order,
                          np.array([tol], dtype=float))[0])


def _inverse_one_minus_unchecked(a: AlgebraElement) -> AlgebraElement:
    """``(I - a)^-1`` without the norm gate; ``ResolventInaccurate`` when
    ``I - a`` is singular or the computed inverse fails its identity check."""
    one = identity_like(a)
    with np.errstate(all="ignore"):
        if a.realization == MAT2:
            inv = _inv_mat2(np.eye(2) - a.data)
        else:
            inv = 1.0 / (one.data - a.data)
        if not np.all(np.isfinite(inv)):
            raise ResolventInaccurate("resolvent inverse is not finite")
        result = AlgebraElement(a.realization, inv, a.grid)
        residual = mul(sub(one, a), result)
        if not (norm(sub(residual, one), NormKind.OPERATOR)
                <= 1e-10 * (1.0 + norm(result))):
            raise ResolventInaccurate("resolvent inverse failed its identity check")
    return result


def inverse_one_minus(a: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Resolvent ``(I - a)^-1`` for positive ``a`` with operator norm < 1/2.

    The paper's resolvent lemma, which ``tests/lemma_checks.py`` checks: the
    norm gate keeps the product ``a (I - a)^-1`` inside the open unit ball.
    The two-step certificate (``contraction._certificate``) builds its h
    with the ungated ``_inverse_one_minus_unchecked`` instead, because its
    own gate admits operator norm exactly 1/2, which this one refuses; at
    that boundary h is no contraction, and its certificate shows h_norm >= 1.
    """
    if not is_positive(a, tol):
        raise NotPositive("resolvent inverse requires a positive element")
    if norm(a, NormKind.OPERATOR) >= 0.5:
        raise PreconditionNormTooLarge(
            "operator norm must be below 1/2 for the resolvent inverse")
    return _inverse_one_minus_unchecked(a)


def is_diagonal(a: AlgebraElement) -> bool:
    """True for scalars, sampled functions, and matrices whose off-diagonal
    entries are zero.

    These are exactly the realizations whose elements commute with each
    other, which some certificate regimes require structurally.
    """
    if a.realization != MAT2:
        return True
    return bool(a.data[0, 1] == 0.0 and a.data[1, 0] == 0.0)


def allclose(a: AlgebraElement, b: AlgebraElement, tol: float = 1e-12) -> bool:
    _require_same_space(a, b)
    return bool(np.all(np.abs(a.data - b.data) <= tol))


# ---------------------------------------------------------------------------
# batched operations
#
# A batch stacks the payloads of N elements of one realization along a new
# leading axis: shape (N, 2, 2), (N, m) or (N,), or (N, 2) for diagonal 2x2
# payloads in the ``DIAG2`` layout.  These are the only definitions of the
# norms, the cone and the orders; ``norm``, ``is_positive`` and ``leq`` run
# them on a batch of one.  Spaces (realization and grid) are the caller's to
# check, since a payload carries neither.
# ---------------------------------------------------------------------------

def _require_finite_batch(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise ValueError("payload must be finite (no NaN/Inf)")


def _sym2_eigvals(m00: Any, m01: Any, m11: Any) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) eigenvalues of the symmetric 2x2 matrices with entry
    columns m00, m01 = m10 and m11; m01 None stands for zeros, where
    hypot(x, 0) is |x| (C99 Annex F)."""
    # halves first: the sum of two finite entries can overflow, their mean not
    h00, h11 = 0.5 * m00, 0.5 * m11
    half_tr = h00 + h11
    disc = np.abs(h00 - h11) if m01 is None else np.hypot(h00 - h11, m01)
    return half_tr - disc, half_tr + disc


def _top_eigval_of_square(d: np.ndarray) -> np.ndarray:
    """The high eigenvalue of m^T m for every 2x2 payload m of ``d``."""
    m = np.matmul(np.swapaxes(d, 1, 2), d)
    return _sym2_eigvals(m[:, 0, 0], m[:, 0, 1], m[:, 1, 1])[1]


def _require_self_adjoint_batch(stacks: tuple[np.ndarray, ...], tol: np.ndarray) -> None:
    """``NotSelfAdjoint`` for the first sample i where some stack's matrix has
    off-diagonal entries more than tol[i] (1 + its largest |entry|) apart,
    naming the first such stack's skew."""
    first = None  # (sample, skew) of the earliest failing sample so far
    for m in stacks:
        skew = np.abs(m[:, 0, 1] - m[:, 1, 0])
        with np.errstate(over="ignore"):  # a bound past the floats passes any skew
            bound = tol * (1.0 + np.abs(m).max(axis=(1, 2)))
        bad = np.flatnonzero(skew > bound)
        if bad.size and (first is None or bad[0] < first[0]):
            first = (bad[0], skew[bad[0]])
    if first is not None:
        raise NotSelfAdjoint(f"matrix is not symmetric (skew {first[1]:.3e})")


def batch_mul(realization: str, a: np.ndarray, b: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``mul`` sample by sample; either side may be a single payload.  The
    product goes into ``out`` when one is given, which may be ``a`` or ``b``.
    A ``DIAG2`` product is entrywise, as the product of diagonal matrices is."""
    product = np.matmul if realization == MAT2 else np.multiply
    out = product(a, b, out=out)
    _require_finite_batch(out)
    return out


def _root_batch(square: Any, data: np.ndarray) -> np.ndarray:
    """sqrt(square(sample)) per sample; a finite, non-zero sample whose square
    leaves the normal float range is divided by 2^e, just above its largest
    |entry| (exact), squared and scaled back.  inf and NaN stay as they are."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = square(data)
    out = np.sqrt(sq)  # sq >= +0, or inf/NaN where the square overflowed
    if len(sq) and not 2.0 ** -1022 <= sq.min() <= sq.max() < math.inf:
        rows = np.flatnonzero(~((sq >= 2.0 ** -1022) & (sq < math.inf)))
        top = np.abs(data[rows]).reshape(len(rows), -1).max(axis=1)
        scale = (top > 0) & (top < math.inf)  # zero rows stay zero
        if scale.any():
            rows, (_, e) = rows[scale], np.frexp(top[scale])
            scaled = np.ldexp(data[rows], -e.reshape((-1,) + (1,) * (data.ndim - 1)))
            with np.errstate(over="ignore"):
                out[rows] = np.ldexp(np.sqrt(square(scaled)), e)
    return out


def batch_norm(realization: str, data: np.ndarray,
               kind: NormKind = NormKind.OPERATOR) -> np.ndarray:
    """The norm of every sample; see ``NormKind``."""
    if realization == SCALAR:
        return np.abs(data)
    if kind is NormKind.ENTRY_SUM_SQUARES:
        return _root_batch(lambda d: (d * d).sum(axis=tuple(range(1, d.ndim))), data)
    if realization == DIAG2:  # m^T m is diag(m00^2, m11^2)
        return _root_batch(
            lambda d: _sym2_eigvals(d[:, 0] * d[:, 0], None, d[:, 1] * d[:, 1])[1], data)
    if realization == MAT2:
        return _root_batch(_top_eigval_of_square, data)
    # max |x| is max(max x, -min x), without an array of |x|; the abs turns
    # a -0.0 that either side can leave into +0.0, as max |x| has it
    out = np.maximum(data.max(axis=1), -data.min(axis=1))
    return np.abs(out, out=out)


def batch_leq(realization: str, a: np.ndarray, b: np.ndarray,
              order: OrderKind, tol: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Whether a[i] <= b[i] in ``order`` up to tol[i], as a bool array.  The
    cone order takes b - a into ``out`` when one is given, which may be ``b``.

    Raises ``RealizationMismatch`` for the entrywise order off 2x2, and under
    the cone ``NotSelfAdjoint`` for a skewed matrix of a or b, ``ValueError``
    for a non-finite b - a, then what ``_in_cone`` raises: in that order,
    each for its first failing sample.  ``DIAG2`` payloads are never skewed.
    """
    if order is OrderKind.ENTRYWISE:
        if realization not in (MAT2, DIAG2) and len(a):
            raise RealizationMismatch("entrywise order is defined for mat2 only")
        entries = tuple(range(1, a.ndim))
        t = tol.reshape((-1,) + (1,) * len(entries))
        return np.all((b >= a - t) & (a >= -t), axis=entries)
    if realization == MAT2:
        _require_self_adjoint_batch((a, b), tol)
    diff = np.subtract(b, a, out=out)
    _require_finite_batch(diff)
    return _in_cone(realization, diff, tol)


def _in_cone(realization: str, d: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Whether the least sample of d[i], or the low eigenvalue of a matrix
    that must be symmetric up to tol[i], is at least -tol[i], as a bool array."""
    if realization not in (MAT2, DIAG2):
        lo = d if d.ndim == 1 else d.min(axis=1)
        return lo >= -tol
    if realization == MAT2:
        _require_self_adjoint_batch((d,), tol)
    # an eigenvalue beyond the float range is +-inf, on its side of the cone
    with np.errstate(over="ignore"):
        if realization == DIAG2:
            sym = 0.5 * d + 0.5 * d
            lo, _ = _sym2_eigvals(sym[:, 0], None, sym[:, 1])
        else:
            sym = 0.5 * d + 0.5 * np.swapaxes(d, 1, 2)
            lo, _ = _sym2_eigvals(sym[:, 0, 0], sym[:, 0, 1], sym[:, 1, 1])
    return lo >= -tol


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def element_to_json(a: AlgebraElement) -> dict:
    if a.realization == MAT2:
        return {"realization": "mat2", "entries": a.data.tolist()}
    if a.realization == SAMPLED:
        return {"realization": "sampled", "grid": a.grid.tolist(),
                "values": a.data.tolist()}
    return {"realization": "scalar", "value": float(a.data)}


def element_from_json(obj: dict) -> AlgebraElement:
    kind = obj.get("realization")
    if kind == "mat2":
        return AlgebraElement(MAT2, np.asarray(obj["entries"], dtype=float))
    if kind == "sampled":
        return sampled(obj["grid"], obj["values"])
    if kind == "scalar":
        return scalar(obj["value"])
    raise ValueError(f"unknown realization in JSON payload: {kind!r}")
