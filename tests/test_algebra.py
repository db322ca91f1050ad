from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifix import algebra
from quasifix.algebra import (
    MAT2,
    SAMPLED,
    AlgebraElement,
    NormKind,
    NotPositive,
    NotSelfAdjoint,
    OrderKind,
    PreconditionNormTooLarge,
    RealizationMismatch,
    ResolventInaccurate,
    add,
    adjoint,
    allclose,
    batch_norm,
    diag2,
    element_from_json,
    element_to_json,
    identity_like,
    inverse_one_minus,
    is_positive,
    leq,
    mat2,
    mul,
    norm,
    sampled,
    scalar,
    sub,
)

from budget import examples
from lemma_checks import random_psd, random_sym
from reference_algebra import (
    min_spectrum,
    reference_is_positive,
    reference_leq,
    reference_norm,
)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


# --- construction and validation ------------------------------------------

def test_mat2_rejects_nan():
    with pytest.raises(ValueError):
        mat2(float("nan"), 0.0, 0.0, 0.0)


def test_grid_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        sampled([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        sampled([1.0], [1.0])


def test_values_and_grid_lengths_must_agree():
    with pytest.raises(ValueError):
        sampled([0.0, 1.0], [1.0, 2.0, 3.0])


# --- arithmetic examples ----------------------------------------------------

def test_add_examples():
    assert allclose(add(diag2(1, 0), diag2(0, 1)), diag2(1, 1))
    assert float(add(scalar(0.0), scalar(2.5)).data) == 2.5
    g = [0.0, 1.0]
    assert np.array_equal(add(sampled(g, [1, 2]), sampled(g, [3, 4])).data, [4, 6])


def test_add_rejects_mismatched_operands():
    with pytest.raises(RealizationMismatch):
        add(scalar(1.0), diag2(1, 1))
    with pytest.raises(RealizationMismatch):
        add(sampled([0, 1], [1, 1]), sampled([0, 2], [1, 1]))


def test_mul_sandwich_collapses_to_quarter():
    half = diag2(0.5, 0.5)
    gap = diag2(3.0, 0.0)  # x - y = 3
    assert allclose(mul(mul(half, gap), half), diag2(0.75, 0.0))


def test_mul_unit_law_and_scalars():
    a = mat2(1.0, 2.0, 3.0, 4.0)
    assert allclose(mul(identity_like(a), a), a)
    assert float(mul(scalar(2), scalar(3)).data) == 6.0


def test_adjoint_examples():
    assert allclose(adjoint(mat2(0, 1, 0, 0)), mat2(0, 0, 1, 0))
    half = diag2(0.5, 0.5)
    assert allclose(adjoint(half), half)
    assert float(adjoint(scalar(4.0)).data) == 4.0


# --- norms -------------------------------------------------------------------

def test_norm_examples():
    a = diag2(1 / math.sqrt(3), 1 / math.sqrt(3))
    assert norm(a, NormKind.ENTRY_SUM_SQUARES) == pytest.approx(
        math.sqrt(2) / math.sqrt(3), abs=1e-15)
    # largest singular value of a diagonal matrix is the largest |entry|
    assert norm(a, NormKind.OPERATOR) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert norm(scalar(0.0)) == 0.0


def test_operator_norm_general_matrix():
    m = mat2(0.0, 3.0, 0.0, 0.0)
    assert norm(m, NormKind.OPERATOR) == pytest.approx(3.0, abs=1e-12)


# --- norms beyond the squaring range ---------------------------------------------

def _decimal_norms(data):
    """(operator, entry-sum-squares) norms in 60-digit decimal arithmetic:
    the operator norm of a 2x2 matrix m is the root of the top eigenvalue
    of m^T m; sampled values have no operator norm here."""
    with localcontext() as ctx:
        ctx.prec = 60
        entries = [Decimal(v) for v in data.ravel().tolist()]
        total = sum(v * v for v in entries).sqrt()
        if data.shape != (2, 2):
            return None, float(total)
        a, b, c, d = entries
        p, q, r = a * a + c * c, a * b + c * d, b * b + d * d
        top = (p + r) / 2 + (((p - r) / 2) ** 2 + q * q).sqrt()
        return float(top.sqrt()), float(total)


def _plain_norms(m):
    """The unscaled arithmetic of both 2x2 norms, which squares the entries."""
    g = m.T @ m
    hi = 0.5 * (g[0, 0] + g[1, 1]) + np.hypot(0.5 * (g[0, 0] - g[1, 1]), g[0, 1])
    return math.sqrt(max(hi, 0.0)), math.sqrt(np.sum(m * m))


def _entries(lo, hi, ends=(5e-324, -2.7e-273, 1e200)):
    """Entries of magnitude 10^lo to 10^hi, zeros and ``ends`` included."""
    mantissa = st.floats(1.0, 9.99) | st.floats(-9.99, -1.0)
    scaled = st.builds(lambda m, e: m * 10.0 ** e, mantissa, st.integers(lo, hi))
    return scaled | st.sampled_from([0.0, -0.0, *ends])


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_entries(-330, 306), min_size=4, max_size=4),
       diagonal=st.booleans())
def test_mat2_norms_match_a_decimal_oracle_over_the_float_range(entries, diagonal):
    if diagonal:
        entries[1] = entries[2] = 0.0
    m = mat2(*entries)
    want = _decimal_norms(m.data)
    for kind, w in zip(NormKind, want):
        got = norm(m, kind)
        ref = reference_norm(m, kind)
        assert abs(got - w) <= 4 * math.ulp(w)
        # np.hypot and math.hypot can round apart off the diagonal
        assert abs(ref - got) <= (0.0 if diagonal else math.ulp(got))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_entries(-330, 300), min_size=4, max_size=4))
def test_sampled_sum_squares_norm_matches_a_decimal_oracle(values):
    a = sampled([0.0, 1.0, 2.0, 3.0], values)
    _, want = _decimal_norms(a.data)
    got = norm(a, NormKind.ENTRY_SUM_SQUARES)
    assert abs(got - want) <= 4 * math.ulp(want)
    assert reference_norm(a, NormKind.ENTRY_SUM_SQUARES) == got


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_entries(-150, 150, ends=()), min_size=4, max_size=4))
def test_in_range_norms_keep_the_unscaled_arithmetic(entries):
    m = mat2(*entries)
    for kind, plain in zip(NormKind, _plain_norms(m.data)):
        assert norm(m, kind).hex() == float(plain).hex()


def test_norms_at_the_ends_of_the_float_range():
    # squaring took the first to 0 and the second to inf with a RuntimeWarning
    for value in (2.7e-273, 1e200):
        m = diag2(value, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in NormKind:
                assert norm(m, kind) == value
                assert reference_norm(m, kind) == value
    # a batch scales only its out-of-range samples, zeros stay zero
    tiny = math.ldexp(1.0, -1000)
    stack = np.stack([diag2(1e200, 0.0).data, diag2(3.0, 4.0).data,
                      np.zeros((2, 2)), mat2(3 * tiny, 0.0, 4 * tiny, 0.0).data])
    assert batch_norm(MAT2, stack).tolist() == [1e200, 4.0, 0.0, 5 * tiny]
    assert batch_norm(MAT2, stack, NormKind.ENTRY_SUM_SQUARES).tolist() == \
        [1e200, 5.0, 0.0, 5 * tiny]
    # a norm beyond the largest float is inf
    huge = mat2(1e308, 1e308, 1e308, 1e308)
    assert norm(huge) == norm(huge, NormKind.ENTRY_SUM_SQUARES) == math.inf
    # and a batch of huge samples is inf too, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert batch_norm(MAT2, np.stack([huge.data] * 2)).tolist() == [math.inf] * 2


def test_batched_norms_of_non_finite_samples_stay_non_finite():
    # such samples are not rescaled: inf stays inf and NaN stays NaN, next to
    # a finite sample that is, and nothing raises or warns
    stack = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                      [[1e200, 0.0], [0.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in NormKind:
            got = batch_norm(MAT2, stack, kind)
            assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 1e200
            got = batch_norm(SAMPLED, stack.reshape(3, 4), kind)
            assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 1e200


# --- positivity and order ----------------------------------------------------

def test_is_positive_examples():
    assert is_positive(diag2(3.0, 0.0))  # x - y >= 0 block
    # eigenvalues of [[1,2],[2,1]] are 3 and -1 (characteristic polynomial)
    assert not is_positive(mat2(1, 2, 2, 1))
    assert is_positive(scalar(0.0))


def test_is_positive_requires_symmetry():
    with pytest.raises(NotSelfAdjoint):
        is_positive(mat2(0, 1, 0, 0))


def test_leq_examples():
    # x <= y <= z: diag(0, y-x) below diag(z-y, z-x), here (x,y,z) = (0,1,2)
    assert leq(diag2(0, 1), diag2(1, 2), OrderKind.ENTRYWISE)
    assert leq(diag2(0, 1), diag2(1, 2), OrderKind.POSITIVE_CONE)
    a = random_sym(np.random.default_rng(7))
    assert leq(a, a, OrderKind.POSITIVE_CONE)
    # difference diag(-1, 1) has eigenvalue -1
    assert not leq(diag2(2, 0), diag2(1, 1), OrderKind.POSITIVE_CONE)


def test_entrywise_order_requires_nonnegative_lower_element():
    assert not leq(diag2(-1, 0), diag2(1, 1), OrderKind.ENTRYWISE)
    with pytest.raises(RealizationMismatch):
        leq(scalar(0), scalar(1), OrderKind.ENTRYWISE)


# --- one definition against the one-element reference ------------------------

ELEMENT_KINDS = ["diagonal", "symmetric", "general", "sampled", "scalar"]
FN_GRID = [0.0, 1.0, 2.0, 3.0]


@st.composite
def _elements(draw, kind):
    """An element of ``kind`` with entries over the float range."""
    entries = _entries(-330, 306, ends=(5e-324, -2.7e-273, 1e200, -1.7e308))
    if kind == "scalar":
        return scalar(draw(entries))
    if kind == "sampled":
        return sampled(FN_GRID, draw(st.lists(entries, min_size=4, max_size=4)))
    m11, m12, m21, m22 = draw(st.lists(entries, min_size=4, max_size=4))
    if kind == "diagonal":
        m12 = m21 = 0.0
    elif kind == "symmetric":
        m21 = m12
    return mat2(m11, m12, m21, m22)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)


def _near_the_edge(d, tol):
    """Whether the low eigenvalue of the symmetric d is within 4 ulps of
    -tol, in ulps of d's largest entry, the scale at which it rounds."""
    return abs(min_spectrum(d, math.inf) + tol) <= 4 * math.ulp(np.abs(d.data).max())


@settings(max_examples=examples(400), deadline=None)
@given(kind=st.sampled_from(ELEMENT_KINDS), tol=st.sampled_from([0.0, 1e-9]),
       data=st.data())
def test_element_operations_are_the_reference_forms(kind, tol, data):
    a, b = data.draw(_elements(kind)), data.draw(_elements(kind))
    # bit for bit wherever the 2x2 eigenvalues meet no off-diagonal entry;
    # off it, np.hypot and math.hypot can round apart by an ulp
    exact = kind not in ("symmetric", "general")
    for x in (a, b):
        for nk in NormKind:
            got, want = norm(x, nk), reference_norm(x, nk)
            assert got == want or (not exact and abs(got - want) <= math.ulp(want))

    def agree(library, reference, in_cone):
        got, want = _outcome(library), _outcome(reference)
        if isinstance(want, tuple):  # an error: the same type and message
            assert got == want
        else:
            assert isinstance(got, bool)
            assert got == want or (not exact and in_cone is not None
                                   and _near_the_edge(in_cone(), tol))

    agree(lambda: is_positive(a, tol), lambda: reference_is_positive(a, tol), lambda: a)
    for order in OrderKind:
        agree(lambda: leq(a, b, order, tol), lambda: reference_leq(a, b, order, tol),
              None if order is OrderKind.ENTRYWISE else lambda: sub(b, a))


# --- resolvent inverse -------------------------------------------------------

def test_inverse_one_minus_scalar_instance():
    a = scalar(0.4)
    inv = inverse_one_minus(a)
    assert float(inv.data) == pytest.approx(1 / 0.6, abs=1e-12)
    assert norm(mul(a, inv), NormKind.OPERATOR) == pytest.approx(2 / 3, abs=1e-12)
    assert norm(mul(a, inv), NormKind.OPERATOR) < 1.0


def test_inverse_one_minus_trivial_and_diagonal():
    assert float(inverse_one_minus(scalar(0.0)).data) == 1.0
    inv = inverse_one_minus(diag2(0.25, 0.1))
    assert allclose(inv, diag2(4 / 3, 10 / 9), tol=1e-12)


def test_inverse_one_minus_gates():
    with pytest.raises(PreconditionNormTooLarge):
        inverse_one_minus(scalar(0.6))
    with pytest.raises(NotPositive):
        inverse_one_minus(scalar(-0.1))


@pytest.mark.parametrize("c", [1e300, 1.0], ids=["huge", "singular"])
def test_the_ungated_resolvent_refuses_what_it_cannot_invert(c):
    # I - c I has no usable inverse: its determinant overflows, or it is
    # singular
    with pytest.raises(ResolventInaccurate):
        algebra._inverse_one_minus_unchecked(diag2(c, c))


# --- serialization -----------------------------------------------------------

@pytest.mark.parametrize("element", [
    mat2(1.5, -2.0, 3.0, 0.25),
    sampled([0.0, 0.5, 1.0], [1.0, -1.0, 2.0]),
    scalar(-3.75),
])
def test_json_roundtrip(element):
    back = element_from_json(element_to_json(element))
    assert back.realization == element.realization
    assert allclose(back, element, tol=0.0)


def test_json_rejects_unknown_realization():
    with pytest.raises(ValueError):
        element_from_json({"realization": "mat3"})


# --- algebraic properties ----------------------------------------------------

@given(finite, finite, finite, finite)
def test_involution_is_an_involution(a, b, c, d):
    m = mat2(a, b, c, d)
    assert allclose(adjoint(adjoint(m)), m, tol=0.0)


@given(finite, finite, finite, finite, finite, finite, finite, finite)
def test_product_adjoint_reverses(a, b, c, d, e, f, g, h):
    m, n = mat2(a, b, c, d), mat2(e, f, g, h)
    assert allclose(adjoint(mul(m, n)), mul(adjoint(n), adjoint(m)), tol=1e-9)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_cone_is_closed_under_addition(seed):
    rng = np.random.default_rng(seed)
    a, b = random_psd(rng), random_psd(rng)
    assert is_positive(add(a, b))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_cstar_identity_for_operator_norm(seed):
    a = random_sym(np.random.default_rng(seed))
    lhs = norm(mul(adjoint(a), a), NormKind.OPERATOR)
    rhs = norm(a, NormKind.OPERATOR) ** 2
    assert abs(lhs - rhs) <= 1e-10


def test_identity_like_and_sub():
    g = [0.0, 0.5, 1.0]
    one = identity_like(sampled(g, [1, 2, 3]))
    assert np.all(one.data == 1.0)
    assert np.array_equal(one.grid, g)
    assert allclose(sub(scalar(5.0), scalar(2.0)), scalar(3.0))


def test_the_self_adjointness_check_names_the_first_failing_sample():
    # the first sample where some stack is skewed, and at that sample the
    # first skewed stack, as the one-element check of each pair in turn
    a, b = np.zeros((3, 2, 2)), np.zeros((3, 2, 2))
    zero = np.zeros(3)
    algebra._require_self_adjoint_batch((a, b), zero)
    a[2, 0, 1] = 1.0
    b[1, 0, 1] = 2.0
    with pytest.raises(NotSelfAdjoint, match=r"skew 2\.000e\+00"):
        algebra._require_self_adjoint_batch((a, b), zero)
    a[1, 0, 1] = 3.0
    with pytest.raises(NotSelfAdjoint, match=r"skew 3\.000e\+00"):
        algebra._require_self_adjoint_batch((a, b), zero)
    # a skew within tol (1 + the largest |entry|) of its sample passes
    algebra._require_self_adjoint_batch((a, b), np.full(3, 1.0))
