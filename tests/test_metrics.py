from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasifix.algebra import (
    MAT2,
    SAMPLED,
    NormKind,
    OrderKind,
    RealizationMismatch,
    allclose,
    batch_norm,
    leq,
    norm,
    sampled,
)
from quasifix.cli import _json_text
from quasifix.metrics import (
    PERIODIC_FN,
    AxiomReport,
    DomainMismatch,
    MetricSpec,
    MULT_OP,
    check_axioms,
    codomain_scalar,
    distance_norm,
    distance_norm_table,
    eval_metric,
    mult_op_values,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    paired_payloads,
    periodic_fn,
    reversed_metric,
    scalar_backward_one,
    scalar_forward_one,
    _component_table,
    _kernel,
    _points,
    _require_fn_point,
    _sweep,
    _tail_norms,
    _triangle_screen,
)

from budget import examples
from reference_algebra import reference_norm
from reference_metrics import (
    reference_distance_norm,
    reference_eval_metric,
    reference_mult_op_values,
)
from reference_sweep import reference_check_axioms, reference_screen, reference_sweep

CATALOG_SPECS = [
    mat2_split(),
    mat2_split_scaled(0.25),
    periodic_fn(1.0, 32),
    scalar_forward_one(),
    scalar_backward_one(),
]

FN_GRID = np.linspace(0.125, 1.0, 4)
SIX_SPECS = CATALOG_SPECS + [mult_op(FN_GRID)]
SWEEP_SPECS = SIX_SPECS + [reversed_metric(spec) for spec in SIX_SPECS]


def _spec_id(spec):
    return spec.name + ("-reversed" if spec.swap_args else "")


# Element-by-element reference sweep: every ordered pair and triple goes
# through the one-pair reference formulas, the algebra's add, norm and leq.
def _check_axioms_generic(spec: MetricSpec, points: list,
                          tol: float) -> AxiomReport:
    n = len(points)
    report = AxiomReport(metric=spec.name, tol=tol,
                         pairs_tested=n * n, triples_tested=n * n * n)
    table = [[reference_eval_metric(spec, x, y) for y in points] for x in points]
    # the rows hold points as JSON values, as check_axioms writes them
    points = [np.asarray(p, dtype=float).tolist() for p in points]

    for i, x in enumerate(points):
        for j, y in enumerate(points):
            d = table[i][j]
            lo = float(np.min(d.data))
            if lo < -tol:
                report.positivity_violations.append(
                    {"x": x, "y": y, "min_component": lo})
            if i == j and np.any(d.data != 0.0):
                report.identity_violations.append(
                    {"x": x, "y": y, "kind": "nonzero-at-diagonal",
                     "max_component": float(np.max(np.abs(d.data)))})
            if i != j and norm(d, spec.norm) <= tol:
                report.identity_violations.append(
                    {"x": x, "y": y, "kind": "zero-at-distinct-points",
                     "max_component": float(np.max(np.abs(d.data)))})

    for i, x in enumerate(points):
        for j, y in enumerate(points):
            for k, z in enumerate(points):
                lhs = table[i][j]
                rhs = table[i][k] + table[k][j]
                tolr = tol * (1.0 + norm(rhs, NormKind.OPERATOR))
                if not leq(lhs, rhs, spec.order, tolr):
                    report.triangle_violations.append(
                        {"x": x, "y": y, "z": z,
                         "lhs": lhs.data.tolist(), "rhs": rhs.data.tolist()})

    for i in range(n):
        for j in range(i + 1, n):
            gap = float(np.max(np.abs(table[i][j].data - table[j][i].data)))
            if gap > tol:
                report.asymmetry_witness = (points[i], points[j])
                break
        if report.asymmetry_witness is not None:
            break
    return report


# --- evaluation --------------------------------------------------------------

def test_mat2_split_is_asymmetric():
    spec = mat2_split()
    d12 = eval_metric(spec, 1.0, 2.0)
    d21 = eval_metric(spec, 2.0, 1.0)
    assert d12.data.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    assert d21.data.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert not allclose(d12, d21)


def test_scaled_split_uses_beta_on_the_lower_block():
    spec = mat2_split_scaled(0.25)
    assert eval_metric(spec, 0.0, 2.0).data.tolist() == [[0.0, 0.0], [0.0, 0.5]]
    assert eval_metric(spec, 2.0, 0.0).data.tolist() == [[2.0, 0.0], [0.0, 0.0]]


def test_periodic_shapes_match_published_displays():
    spec = periodic_fn(period=1.0, grid_size=64)
    t = spec.grid
    up = eval_metric(spec, 0.5, 0.0)
    down = eval_metric(spec, 0.0, 0.5)
    assert np.allclose(up.data, 0.5 * t)
    assert np.allclose(down.data, 0.5 * (1.0 - t))
    assert norm(up, NormKind.OPERATOR) != norm(down, NormKind.OPERATOR)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
@pytest.mark.parametrize("x", [-1.5, 0.0, 0.75])
def test_identity_is_exact_zero(spec, x):
    assert np.all(eval_metric(spec, x, x).data == 0.0)


def test_mult_op_identity_and_ties():
    grid = np.linspace(0.1, 1.0, 16)
    spec = mult_op(grid)
    f = grid ** 2
    assert np.all(eval_metric(spec, f, f).data == 0.0)
    g = f.copy()
    g[::2] += 1.0  # ties on the odd slots contribute zero
    d = eval_metric(spec, f, g)
    assert np.all(d.data[1::2] == 0.0)
    assert np.array_equal(d.data[::2], (g - f)[::2])


def test_mult_op_asymmetry_factor():
    grid = np.linspace(0.25, 1.0, 8)
    spec = mult_op(grid)
    two = np.full(8, 2.0)
    one = np.full(8, 1.0)
    assert np.all(eval_metric(spec, two, one).data == 0.5)
    assert np.all(eval_metric(spec, one, two).data == 1.0)


def test_domain_checks():
    with pytest.raises(DomainMismatch):
        eval_metric(mat2_split(), float("nan"), 1.0)
    spec = mult_op(np.linspace(0.1, 1.0, 8))
    with pytest.raises(DomainMismatch):
        eval_metric(spec, np.ones(5), np.ones(8))


@pytest.mark.parametrize("grid, message", [
    ([0.0, 1.0, np.inf], "finite"),
    ([-np.inf, 0.0, 1.0], "finite"),
    ([0.0, np.nan, 1.0], "finite"),
    ([0.0, 1.0, 1.0], "increasing"),
    ([0.0], "two points"),
])
def test_mult_op_refuses_a_grid_sampled_elements_cannot_use(grid, message):
    # the spec's grid is the one its distances are sampled on, so it is
    # refused when the spec is built, not on the first distance
    with pytest.raises(ValueError, match=message):
        mult_op(grid)


@pytest.mark.parametrize("spec", [periodic_fn(2.0, 16), mult_op(FN_GRID)], ids=_spec_id)
def test_the_spec_grid_is_one_read_only_array(spec):
    g = spec.grid
    assert isinstance(g, np.ndarray) and g.dtype == np.float64
    with pytest.raises(ValueError):
        g[0] = 1.0
    # the spec's sampled values share it
    assert codomain_scalar(spec, 0.5).grid is g
    # a changed copy checks its own array; specs compare by identity
    other = reversed_metric(spec)
    assert other.grid is not g and np.array_equal(other.grid, g)
    assert replace(spec) != spec and {spec: 1}[spec] == 1
    assert mat2_split().grid is None


def test_mult_op_copies_the_grid_it_is_given():
    grid = FN_GRID.copy()
    spec = mult_op(grid)
    grid[0] = -1.0
    assert spec.grid[0] == FN_GRID[0] and grid.flags.writeable


def test_reversed_metric_swaps_arguments():
    spec = scalar_forward_one()
    rev = reversed_metric(spec)
    assert distance_norm(rev, 0.0, 2.0) == distance_norm(spec, 2.0, 0.0)
    assert distance_norm(reversed_metric(rev), 0.0, 2.0) == distance_norm(spec, 0.0, 2.0)


# --- axiom sweeps -------------------------------------------------------------

def test_split_metric_axioms_exhaustive():
    report = check_axioms(mat2_split(), np.linspace(-2, 2, 41), tol=1e-12)
    assert report.triples_tested == 41 ** 3
    assert report.passed
    assert report.asymmetry_witness is not None
    x, y = report.asymmetry_witness
    assert not allclose(eval_metric(mat2_split(), x, y),
                        eval_metric(mat2_split(), y, x))


def test_periodic_axioms_exhaustive():
    report = check_axioms(periodic_fn(1.0, 64), np.linspace(-2, 2, 21), tol=1e-12)
    assert report.passed
    assert report.asymmetry_witness is not None


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_catalog_metrics_have_witnesses(spec):
    report = check_axioms(spec, np.linspace(-2, 2, 9), tol=1e-12)
    assert report.passed
    assert report.asymmetry_witness is not None


def test_degenerate_sample_set_passes_vacuously():
    report = check_axioms(mat2_split(), [0.0], tol=1e-12)
    assert report.passed
    assert report.asymmetry_witness is None
    assert report.triples_tested == 1


def test_mult_op_axioms_over_function_samples():
    grid = np.linspace(0.125, 1.0, 8)
    spec = mult_op(grid)
    functions = [lam * grid for lam in (-1.0, -0.25, 0.0, 0.5, 1.0)]
    functions += [np.full(8, c) for c in (0.5, 1.0)]
    report = check_axioms(spec, functions, tol=1e-12)
    assert report.passed
    assert report.asymmetry_witness is not None


def test_vectorized_path_matches_generic_path():
    pts = np.linspace(-1, 1, 7)
    spec = mat2_split_scaled(0.5)
    fast = check_axioms(spec, pts, tol=1e-12)
    slow = _check_axioms_generic(spec, list(pts), tol=1e-12)
    assert fast.passed == slow.passed
    assert fast.triples_tested == slow.triples_tested
    assert (fast.asymmetry_witness is None) == (slow.asymmetry_witness is None)


# --- violation reporting -------------------------------------------------------

# Tables that break the axioms, built by hand: the sweep reads only the
# component table and the spec's name and order
SQUARED_GAP = MetricSpec("squared-gap", "scalar", OrderKind.POSITIVE_CONE,
                         NormKind.OPERATOR)
SQUARED_GAP_NAN = replace(SQUARED_GAP, name="squared-gap-nan")
SIGNED_GAP = MetricSpec("signed-gap", MAT2, OrderKind.ENTRYWISE,
                        NormKind.ENTRY_SUM_SQUARES)
_NAN_POINT = 5.0


def _gaps(pts):
    return pts[:, None] - pts[None, :]


def _squared_gap_table(pts):
    return (_gaps(pts) ** 2)[..., None]


def _squared_gap_nan_table(pts):
    # the squared gap, but NaN on every distance to or from _NAN_POINT
    table = _squared_gap_table(pts)
    marked = pts == _NAN_POINT
    table[marked] = math.nan
    table[:, marked] = math.nan
    return table


def _signed_gap_table(pts):
    # d(x, y) = diag(x - y, y - x) has a negative entry whenever x != y, so
    # under the entrywise order the triangle fails at every z, whatever the
    # sums through z
    gap = _gaps(pts)
    return np.stack([gap, -gap], axis=-1)


HAND_BUILT = {SQUARED_GAP: _squared_gap_table, SQUARED_GAP_NAN: _squared_gap_nan_table,
              SIGNED_GAP: _signed_gap_table}


def test_broken_metric_violations_serialize():
    pts = np.array([0.0, 1.0, 2.0])
    report = _sweep(SQUARED_GAP, pts, _squared_gap_table(pts), tol=1e-9)
    # d(0,2) = 4 exceeds d(0,1) + d(1,2) = 2
    assert not report.triangle_ok
    assert report.identity_ok and report.positivity_ok
    assert [(v["x"], v["y"], v["z"]) for v in report.triangle_violations] == \
        [(0.0, 2.0, 1.0), (2.0, 0.0, 1.0)]
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["passed"] is False
    assert payload["triangle_violations"][0]["lhs"] == [4.0]


def test_report_json_is_serializable_for_clean_runs():
    report = check_axioms(mat2_split(), np.linspace(-2, 2, 5), tol=1e-12)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert "asymmetry_witness" in payload


# --- one sweep against the element-by-element reference -------------------------

def _sample_points(rng, spec):
    """Up to seven points drawn with repeats from a pool of one-decimal values
    at a random scale, so that distances tie and distinct samples coincide."""
    shape = (int(rng.integers(1, 5)),)
    if spec.name == "mult-op":
        shape += FN_GRID.shape
    scale = 10.0 ** rng.uniform(-3.0, 9.0)
    pool = np.round(rng.uniform(-4.0, 4.0, size=shape), 1) * scale
    return [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 8))]


def _outcome(report):
    d = report.to_json_dict()
    fields = {"positivity_violations": ("x", "y"),
              "identity_violations": ("x", "y", "kind"),
              "triangle_violations": ("x", "y", "z")}
    return (d["passed"], d["pairs_tested"], d["triples_tested"],
            d["asymmetry_witness"],
            {name: [[v[f] for f in keys] for v in d[name]]
             for name, keys in fields.items()})


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_the_element_by_element_reference(spec, seed):
    points = _sample_points(np.random.default_rng(seed), spec)
    assert _outcome(check_axioms(spec, points)) == \
        _outcome(_check_axioms_generic(spec, points, tol=1e-9))


# --- the screened triangle step against the exhaustive one ----------------------

SCREEN_SPECS = SWEEP_SPECS + list(HAND_BUILT)


def _hexed(obj):
    """``obj`` with every float written by ``float.hex``."""
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hexed(v) for v in obj]
    return obj.hex() if isinstance(obj, float) else obj


@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=_spec_id)
@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_screened_sweep_is_the_exhaustive_sweep(spec, seed, tol):
    rng = np.random.default_rng(seed)
    points = _sample_points(rng, spec)
    if spec is SQUARED_GAP_NAN:
        points.insert(int(rng.integers(0, len(points) + 1)), _NAN_POINT)
    if spec in HAND_BUILT:
        pts = np.array(points, dtype=float)
        table = HAND_BUILT[spec](pts)
        got, want = _sweep(spec, pts, table, tol), reference_sweep(spec, pts, table, tol)
    else:
        got, want = check_axioms(spec, points, tol), reference_check_axioms(spec, points, tol)
    assert _hexed(got.to_json_dict()) == _hexed(want.to_json_dict())


def _is_json_value(v):
    # type, not isinstance: np.float64 subclasses float
    return type(v) in (float, str) or type(v) is list and all(type(c) is float for c in v)


@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=_spec_id)
@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_sweep_rows_hold_plain_json_values(spec, seed, tol):
    # catalog sweeps of repeated points write identity rows, and the
    # hand-built tables positivity, triangle and (NaN) nonzero-diagonal rows
    rng = np.random.default_rng(seed)
    points = _sample_points(rng, spec)
    if spec is SQUARED_GAP_NAN:
        points.insert(int(rng.integers(0, len(points) + 1)), _NAN_POINT)
    if spec in HAND_BUILT:
        pts = np.array(points, dtype=float)
        report = _sweep(spec, pts, HAND_BUILT[spec](pts), tol)
    else:
        report = check_axioms(spec, points, tol)
    rows = (report.positivity_violations + report.identity_violations
            + report.triangle_violations)
    assert all(_is_json_value(v) for row in rows for v in row.values())
    witness = report.asymmetry_witness
    assert witness is None or all(map(_is_json_value, witness))
    payload = report.to_json_dict()
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_a_nan_sum_at_one_z_hides_no_failure_at_another():
    # d(0, 2) = 4 exceeds d(0, 1) + d(1, 2) = 2, while the sum through z = 5
    # is NaN; a screen that let the NaN win the min would flag no pair
    pts = np.array([0.0, 1.0, 2.0, _NAN_POINT])
    table = _squared_gap_nan_table(pts)
    report = _sweep(SQUARED_GAP_NAN, pts, table, tol=1e-9)
    assert [(v["x"], v["y"], v["z"]) for v in report.triangle_violations] == \
        [(0.0, 2.0, 1.0), (2.0, 0.0, 1.0)]
    assert _hexed(report.to_json_dict()) == \
        _hexed(reference_sweep(SQUARED_GAP_NAN, pts, table, 1e-9).to_json_dict())


@settings(max_examples=examples(100), deadline=None)
@given(beta=st.floats(1e-6, 1e6), tol=st.sampled_from([0.0, 1e-9, 1e-3]),
       ulps=st.integers(-3, 3))
def test_screen_keeps_the_failures_at_the_tolerance_edge(beta, tol, ulps):
    # d = beta |x - y|, with d(0, 2) raised to fail the triple (0, 2, 1) by
    # about its tolerance tol (1 + 2 beta), give or take a few ulps; a
    # screen looser than tol misses the failures just past the edge
    edge = tol * (1.0 + 2.0 * beta) if tol else math.ulp(2.0 * beta)
    raised = max(0.0, edge + ulps * math.ulp(edge))
    pts = np.array([0.0, 1.0, 2.0])
    table = (beta * np.abs(_gaps(pts)))[..., None]
    table[0, 2] += raised
    spec = replace(SQUARED_GAP, name="raised-gap")
    assert _hexed(_sweep(spec, pts, table, tol).to_json_dict()) == \
        _hexed(reference_sweep(spec, pts, table, tol).to_json_dict())


# --- the periodic-fn screen on the end components ---------------------------------

PERIODS = st.sampled_from([1e-3, 1.0, 7.0])
EPS = np.finfo(float).eps


def _wide_points(rng, most, spec):
    """Up to ``most`` points drawn with repeats from a pool at a magnitude
    between 1e-3 and 1e307, where the rounding of the distances sets the
    screen's margin, or, a quarter of the time, from a pool at the edge of
    the float range for ``spec``: its ends +-s are the points farthest
    apart whose distance is finite, so at a period above 1 their pair takes
    the divide-first path, and sums of two distances pass the float range.
    For ``most`` of 20 and more it is sometimes 20 points in +-1e150, where
    a screen on the end components without its margin misses pairs.  Half
    the other pools lie below 10, where distances straddle the tolerances."""
    roll = rng.random()
    if most >= 20 and roll < 0.25:
        return list(rng.uniform(-1e150, 1e150, size=20))
    if roll >= 0.75:
        # (x - y) t at the last t stays finite, and (y - x)(P - t) / P is at
        # most y - x
        s = np.finfo(float).max / (2.0 * max(float(spec.grid[-1]), 1.0)) * (1.0 - 1e-9)
        pool = np.concatenate([[-s, s], rng.uniform(-s, s, size=int(rng.integers(0, 6)))])
    else:
        scale = 10.0 ** (rng.uniform(-3.0, 1.0) if rng.random() < 0.5
                         else rng.uniform(1.0, 307.0))
        pool = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8))) * scale
    return [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, most + 1))]


@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), period=PERIODS, size=st.integers(2, 100),
       reverse=st.booleans(), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_the_end_component_screen_flags_every_pair_the_full_screen_flags(
        seed, period, size, reverse, tol):
    # at 2 samples the ends are every component, and the two screens differ
    # only by the margin
    spec = periodic_fn(period, size)
    if reverse:
        spec = reversed_metric(spec)
    points = _wide_points(np.random.default_rng(seed), 20, spec)
    table = _component_table(spec, points)[1]
    flagged = _triangle_screen(spec, table, tol)
    assert not np.any(reference_screen(spec, table, tol) & ~flagged)
    assert _hexed(check_axioms(spec, points, tol).to_json_dict()) == \
        _hexed(reference_check_axioms(spec, points, tol).to_json_dict())


@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), period=PERIODS, size=st.integers(2, 100),
       reverse=st.booleans())
def test_periodic_components_lie_on_the_line_through_their_ends(seed, period, size,
                                                                reverse):
    # the claims the sweep rests on.  A pair's computed components are
    # monotone in t.  In exact rational arithmetic: each computed component
    # is within 2 eps of its exact value, relative, plus
    # u = 2^-1074 / min(P, 1), and the exact components of a pair lie on one
    # line in t; so a component and the line through the computed end
    # components at its t are at most 4 eps M + 2u apart, for M the pair's
    # largest magnitude
    spec = periodic_fn(period, size)
    if reverse:
        spec = reversed_metric(spec)
    pts = _points(spec, _wide_points(np.random.default_rng(seed), 6, spec))
    table = _kernel(spec, pts[:, None], pts[None, :])
    t = [Fraction(v) for v in spec.grid.tolist()]
    weights = [(v - t[0]) / (t[-1] - t[0]) for v in t]
    u = Fraction(2.0 ** -1074) / Fraction(min(period, 1.0))
    for comps in table.reshape(-1, size).tolist():
        steps = list(zip(comps, comps[1:]))
        assert all(a <= b for a, b in steps) or all(a >= b for a, b in steps)
        first, last = Fraction(comps[0]), Fraction(comps[-1])
        bound = 4 * Fraction(EPS) * Fraction(max(map(abs, comps))) + 2 * u
        for c, w in zip(comps, weights):
            assert abs(Fraction(c) - (first + w * (last - first))) <= bound


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_a_periodic_sweep_past_the_float_range_is_the_exhaustive_sweep(tol):
    # at period 7 the pair (-2.5e307, 2.5e307) computes its component at
    # t = 0 divide first, as 5e307 * 7 passes the float range, and sums of
    # two distances through it pass it too: the screened sweep still
    # reports what the exhaustive one reports, unwarned
    spec = periodic_fn(7.0, 2)
    points = [-2.5e307, 2.5e307, 0.0, 1e307, -2.5e307]
    table = _component_table(spec, points)[1]
    assert table[0, 1].tolist() == [5e307, 2.5e307]
    with np.errstate(over="ignore"):
        assert np.isinf(table[:, :, None, :] + table[None, :, :, :]).any()
    assert _hexed(check_axioms(spec, points, tol).to_json_dict()) == \
        _hexed(reference_check_axioms(spec, points, tol).to_json_dict())


OVERFLOWING_SUM = MetricSpec("overflowing-sum", MAT2, OrderKind.POSITIVE_CONE,
                             NormKind.OPERATOR)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_a_sum_past_the_float_range_has_tolerance_0_at_tol_0(tol):
    # d(0, 1) + d(1, 2) = (inf, 0) falls short of d(0, 2) = (0, 1) in its
    # finite component.  At tol 0 the tolerance is 0, so the triple fails;
    # at tol > 0 it is tol (1 + inf) = inf, so the triple passes
    pts = np.array([0.0, 1.0, 2.0])
    table = np.ones((3, 3, 2))
    table[np.arange(3), np.arange(3)] = 0.0
    table[0, 1] = table[1, 2] = (1e308, 0.0)
    table[0, 2] = (0.0, 1.0)
    report = _sweep(OVERFLOWING_SUM, pts, table, tol)
    triples = [(v["x"], v["y"], v["z"]) for v in report.triangle_violations]
    assert ((0.0, 2.0, 1.0) in triples) == (tol == 0.0)
    assert _hexed(report.to_json_dict()) == \
        _hexed(reference_sweep(OVERFLOWING_SUM, pts, table, tol).to_json_dict())


@pytest.mark.parametrize("spec", [s for s in SCREEN_SPECS if s.name != PERIODIC_FN],
                         ids=_spec_id)
@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_other_metrics_keep_the_full_screen(spec, seed, tol):
    rng = np.random.default_rng(seed)
    points = _sample_points(rng, spec)
    if spec in HAND_BUILT:
        table = HAND_BUILT[spec](np.array(points, dtype=float))
    else:
        table = _component_table(spec, points)[1]
    assert np.array_equal(_triangle_screen(spec, table, tol),
                          reference_screen(spec, table, tol))


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_sweep_refuses_a_negative_or_nan_tolerance(tol):
    # a NaN tolerance failed no comparison, so every axiom passed; a negative
    # one makes the triangle screen unsound
    with pytest.raises(ValueError, match="tol must be a non-negative number"):
        check_axioms(scalar_forward_one(), [0.0, 1.0, 2.0], tol=tol)


def test_sweep_accepts_a_zero_tolerance():
    assert check_axioms(mat2_split(), np.linspace(-2, 2, 9), tol=0.0).passed


BINDING_SPECS = SWEEP_SPECS + [periodic_fn(3.0, 8)]


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
@settings(max_examples=examples(40), deadline=None)
@given(data=st.data())
def test_component_table_rows_are_eval_metric_components(spec, data):
    # near the largest float, so that distances overflow
    huge = st.sampled_from([-1.7e308, -1e308, 1e308, 1.7e308])
    value = st.floats(allow_nan=False, allow_infinity=False) | huge
    if spec.name == "mult-op":
        value = st.lists(value, min_size=FN_GRID.size, max_size=FN_GRID.size)
    points = data.draw(st.lists(value, max_size=5))
    try:
        _, table = _component_table(spec, points)
    except DomainMismatch:
        # the one-pair reference must reject some pair as well
        with pytest.raises(DomainMismatch):
            for x in points:
                for y in points:
                    reference_eval_metric(spec, x, y)
        return
    assert table.shape[:2] == (len(points), len(points))
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            d = reference_eval_metric(spec, x, y)
            want = np.diagonal(d.data) if d.realization == "mat2" else np.ravel(d.data)
            assert _hex(table[i, j]) == _hex(want)


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
@settings(max_examples=examples(40), deadline=None)
@given(data=st.data())
def test_paired_payloads_are_eval_metric_payloads(spec, data):
    # NaN, and values near the largest float, so that distances overflow
    huge = st.sampled_from([-1.7e308, -1e308, 1e308, 1.7e308])
    value = st.floats(allow_infinity=False) | huge
    if spec.name == "mult-op":
        value = st.lists(value, min_size=FN_GRID.size, max_size=FN_GRID.size)
    pairs = data.draw(st.lists(st.tuples(value, value), max_size=5))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    try:
        want = [reference_eval_metric(spec, x, y) for x, y in pairs]
    except Exception as exc:
        with pytest.raises(type(exc)):
            paired_payloads(spec, xs, ys)
        return
    got = paired_payloads(spec, xs, ys)
    assert got.shape == (len(pairs),) + codomain_scalar(spec, 0.0).data.shape
    assert _hex(got) == _hex([d.data for d in want])


@pytest.mark.parametrize("spec", [mat2_split(), mat2_split_scaled(0.25),
                                  reversed_metric(mat2_split())], ids=_spec_id)
def test_paired_payloads_keep_the_sign_of_a_zero_component(spec):
    # -0.0 - 0.0 is -0.0 on the diagonal; the off-diagonal entries stay +0.0
    pairs = [(-0.0, 0.0), (0.0, -0.0)]
    want = [reference_eval_metric(spec, x, y).data for x, y in pairs]
    assert _hex(paired_payloads(spec, *zip(*pairs))) == _hex(want)


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
def test_paired_payloads_of_no_pairs_and_of_bad_pairs(spec):
    point = FN_GRID if spec.name == "mult-op" else 1.0
    empty = paired_payloads(spec, [], [])
    assert empty.shape == (0,) + codomain_scalar(spec, 0.0).data.shape
    with pytest.raises(ValueError, match="as many"):
        paired_payloads(spec, [point, point], [point])
    nan = np.full(FN_GRID.size, np.nan) if spec.name == "mult-op" else np.nan
    with pytest.raises(Exception) as one_pair:
        reference_eval_metric(spec, point, nan)
    with pytest.raises(one_pair.type):
        paired_payloads(spec, [point, point], [point, nan])


@pytest.mark.parametrize("spec, points, message, reference_error", [
    (mat2_split(), [0.0, float("nan")], "finite reals", DomainMismatch),
    (mat2_split(), [float("inf"), 0.0], "finite reals", DomainMismatch),
    # float() refuses a 2-D point before the one-pair reference checks it
    (mat2_split(), [[0.0, 1.0]], "finite reals", TypeError),
    (mat2_split(), [1e308, -1e308, 0.0], "overflows", DomainMismatch),
    (periodic_fn(3.0, 8), [1e308, 0.0], "overflows", DomainMismatch),
    (scalar_forward_one(), [-1e308, 1e308], "overflows", DomainMismatch),
    (mult_op(FN_GRID), [np.ones(3)], "grid", DomainMismatch),
    (mult_op(FN_GRID), [np.full(4, 1e308), np.full(4, -1e308)], "overflows",
     DomainMismatch),
], ids=["nan", "inf", "not-real", "mat2-overflow", "periodic-overflow",
        "scalar-overflow", "fn-shape", "fn-overflow"])
def test_sweep_rejects_points_and_distances_eval_metric_rejects(spec, points,
                                                                message,
                                                                reference_error):
    with pytest.raises(DomainMismatch, match=message):
        check_axioms(spec, points)
    for one_pair, error in [(eval_metric, DomainMismatch),
                            (reference_eval_metric, reference_error)]:
        with pytest.raises(error):
            for x in points:
                for y in points:
                    one_pair(spec, x, y)


@pytest.mark.parametrize("spec, x, y", [
    (mat2_split(), 1e308, -1e308),
    (mat2_split_scaled(0.5), -1.7e308, 1e308),
    (periodic_fn(3.0, 8), 1e308, 0.0),
    (periodic_fn(3.0, 8), -1e308, 1e308),
    (scalar_forward_one(), -1e308, 1e308),
    (scalar_backward_one(), 1e308, -1e308),
    (mult_op(FN_GRID), np.full(4, -1e308), np.full(4, 1e308)),
], ids=["mat2-split", "mat2-split-scaled", "periodic-up", "periodic-down",
        "scalar-forward-one", "scalar-backward-one", "mult-op"])
def test_eval_metric_rejects_overflowing_distances(spec, x, y):
    for one_pair in (eval_metric, reference_eval_metric):
        with pytest.raises(DomainMismatch, match="overflows"):
            one_pair(spec, x, y)


@pytest.mark.parametrize("period, t_grid, x, y", [
    (7.0, 2, -2.5e307, 2.5e307), (3.0, 8, 0.0, 1e308), (1.5, 4, -8e307, 8e307),
], ids=["period-7", "period-3", "period-1.5"])
def test_a_periodic_product_past_the_float_range_divides_first(period, t_grid, x, y):
    # (y - x)(P - t) overflows for P - t > 1 where (y - x)(P - t) / P does
    # not: those entries compute (y - x)((P - t) / P), and every entry whose
    # product is finite keeps the product-first bits
    spec = periodic_fn(period, t_grid)
    d, rest = y - x, period - spec.grid
    with np.errstate(over="ignore"):
        product_first = d * rest / period
    want = np.where(np.isinf(product_first), d * (rest / period), product_first)
    assert np.isinf(product_first).any() and np.isfinite(want).all()
    for one_pair in (eval_metric, reference_eval_metric):
        assert _hex(one_pair(spec, x, y).data) == _hex(want)


@pytest.mark.parametrize("spec", [periodic_fn(), scalar_forward_one(),
                                  mult_op(FN_GRID)], ids=_spec_id)
def test_entrywise_order_is_refused_off_mat2(spec):
    spec = replace(spec, order=OrderKind.ENTRYWISE)
    with pytest.raises(RealizationMismatch):
        check_axioms(spec, [])


@pytest.mark.parametrize("codomain, grid", [(MAT2, None), (SAMPLED, (0.0, 0.5)),
                                            ("scalar", None)],
                         ids=["mat2", "sampled", "scalar"])
def test_a_metric_outside_the_catalog_is_refused_everywhere(codomain, grid):
    # the kernel's last branch; a sampled spec must not be taken for the
    # periodic-function metric, whose codomain and grid it shares
    spec = MetricSpec("no-such-metric", codomain, OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR, grid=grid)
    for points in ([], [0.0, 1.0]):
        for form in (lambda: check_axioms(spec, points),
                     lambda: paired_payloads(spec, points, points),
                     lambda: distance_norm_table(spec, points, points)):
            with pytest.raises(ValueError, match="unknown metric 'no-such-metric'"):
                form()
    for one_pair in (eval_metric, distance_norm, reference_eval_metric):
        with pytest.raises(ValueError, match="unknown metric 'no-such-metric'"):
            one_pair(spec, 0.0, 1.0)


def test_triangle_sweep_memory_is_quadratic_in_the_sample_count():
    # 61 points x 64 samples: the table is 1.9 MB, and the sweep holds at
    # most two more arrays of its size; a sweep that holds all n^3 triples
    # at once needs over 100 MB per temporary
    tracemalloc.start()
    try:
        report = check_axioms(periodic_fn(1.0, 64), np.linspace(-2, 2, 61), tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 3 * 61 * 61 * 64 * 8


# --- fast forms against their references -------------------------------------------

def _reference_mult_op_values(f, g):
    """The nested-where form of the multiplication-operator symbol."""
    with np.errstate(over="ignore"):
        return np.where(f > g, 0.5 * (f - g), np.where(g > f, g - f, 0.0))


# finite samples from a small pool (so that they tie), subnormals and
# samples whose differences overflow
SAMPLE = (st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e308, -1e308, 1.7976931348623157e308])
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=examples(100), deadline=None)
@given(data=st.data())
def test_mult_op_values_are_the_nested_where_form(data):
    f_shape, g_shape = data.draw(st.sampled_from(
        [((4,), (4,)), ((3, 1, 4), (1, 2, 4)), ((2, 4), (4,))]))
    f = data.draw(arrays(float, f_shape, elements=SAMPLE))
    g = data.draw(arrays(float, g_shape, elements=SAMPLE))
    got, want = mult_op_values(f, g), _reference_mult_op_values(f, g)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# rows that are sampled zeros of either sign: their norm is +0.0
ZERO_ROWS = np.array([[-0.0] * FN_GRID.size, [0.0, -0.0, -0.0, 0.0]])


@pytest.mark.parametrize("spec", [mult_op(FN_GRID), reversed_metric(mult_op(FN_GRID))],
                         ids=_spec_id)
@settings(max_examples=examples(100), deadline=None)
@given(kind=st.sampled_from(NormKind), data=st.data())
def test_in_place_kernels_are_the_reference_forms(spec, kind, data):
    # up to five functions from the SAMPLE pool, so that samples tie, carry
    # +-0.0 and differ by more than the largest float; sometimes the last
    # function repeats an earlier one
    rows = data.draw(st.lists(arrays(float, FN_GRID.shape, elements=SAMPLE), max_size=5))
    if rows and data.draw(st.booleans()):
        rows.append(rows[data.draw(st.integers(0, len(rows) - 1))].copy())
    stack = np.reshape(rows, (-1, FN_GRID.size))
    g = data.draw(arrays(float, FN_GRID.shape, elements=SAMPLE))
    held = stack.copy(), g.copy()

    # the kernel writes into its own array of differences, not into f or g,
    # also for an empty batch
    assert _hex(mult_op_values(stack, g)) == _hex(reference_mult_op_values(stack, g))
    assert _hex(mult_op_values(g, stack)) == _hex(reference_mult_op_values(g, stack))
    assert np.array_equal(stack, held[0]) and np.array_equal(g, held[1])

    # the sampled operator norm, row by row, of the functions, of +-0.0 rows
    # and of no rows
    for batch in (stack, ZERO_ROWS, stack[:0]):
        want = [reference_norm(sampled(FN_GRID, row)) for row in batch]
        assert _hex(batch_norm(SAMPLED, batch)) == _hex(want)

    # the solver's tails d(p, q) and d(q, p) for q the last function, over
    # one stack of the functions; one function leaves two empty tails
    if not rows:
        return
    stack = _points(spec, rows)
    try:
        want = [[reference_distance_norm(spec, p, rows[-1], kind) for p in rows[:-1]],
                [reference_distance_norm(spec, rows[-1], p, kind) for p in rows[:-1]]]
    except DomainMismatch:
        with pytest.raises(DomainMismatch):
            _tail_norms(spec, stack, kind)
        return
    assert [_hex(t) for t in _tail_norms(spec, stack, kind)] == [_hex(t) for t in want]


def _outcome_of(fn, *args):
    """The returned array's shape and bytes, or the exception's type and text."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value.shape, value.tobytes()


def _fn_points_one_at_a_time(spec, points):
    return np.reshape([_require_fn_point(spec, f) for f in points],
                      (-1, spec.grid.size))


FN_ROW = st.lists(st.floats(-1e3, 1e3), min_size=FN_GRID.size, max_size=FN_GRID.size)
BAD_FN_ROW = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).filter(
        lambda r: len(r) != FN_GRID.size),                        # wrong length
    FN_ROW.map(lambda r: [r]),                                    # a 2-D row
    st.tuples(FN_ROW, st.integers(0, FN_GRID.size - 1),
              st.sampled_from([math.nan, math.inf, -math.inf])).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),        # NaN or inf
)


@settings(max_examples=examples(200), deadline=None)
@given(rows=st.lists(FN_ROW | BAD_FN_ROW, max_size=5),
       as_arrays=st.booleans())
def test_mult_op_points_are_checked_as_one_at_a_time(rows, as_arrays):
    # wrong lengths and 2-D rows among good rows make the list ragged
    spec = mult_op(FN_GRID)
    points = [np.array(r) for r in rows] if as_arrays else rows
    assert _outcome_of(_points, spec, points) == \
        _outcome_of(_fn_points_one_at_a_time, spec, points)


@pytest.mark.parametrize("points", [
    [], [FN_GRID, np.ones(3)], [[FN_GRID]], [FN_GRID, [1.0, 2.0, np.nan, 4.0]],
    [[np.inf] * 4, np.ones(3)], [np.ones(3), [np.inf] * 4], np.ones((2, 4)),
], ids=["empty", "wrong-length", "2-d-row", "nan", "inf-then-short",
        "short-then-inf", "array"])
def test_mult_op_point_checks_on_named_cases(points):
    spec = mult_op(FN_GRID)
    assert _outcome_of(_points, spec, points) == \
        _outcome_of(_fn_points_one_at_a_time, spec, points)


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
@settings(max_examples=examples(30), deadline=None)
@given(kind=st.sampled_from(NormKind), data=st.data())
def test_distance_norm_table_is_the_norm_of_each_distance(spec, kind, data):
    huge = st.sampled_from([-1.7e308, -1e308, 1e200, 1e308])
    value = st.floats(-1e6, 1e6) | huge
    if spec.name == MULT_OP:
        value = st.lists(value, min_size=FN_GRID.size, max_size=FN_GRID.size)
    xs = data.draw(st.lists(value, max_size=4))
    ys = data.draw(st.lists(value, max_size=4))
    # squared norms above ~1e308 are taken on scaled values, without a
    # RuntimeWarning, in both forms
    try:
        want = [[reference_distance_norm(spec, x, y, kind) for y in ys] for x in xs]
    except Exception as exc:
        with pytest.raises(type(exc)):
            distance_norm_table(spec, xs, ys, kind)
        return
    got = distance_norm_table(spec, xs, ys, kind)
    default = distance_norm_table(spec, xs, ys)
    assert got.shape == (len(xs), len(ys))
    assert _hex(got) == _hex(want)
    if kind is spec.norm:
        assert _hex(default) == _hex(want)


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
def test_an_empty_side_gives_an_empty_table(spec):
    point = np.zeros(FN_GRID.size) if spec.name == MULT_OP else 0.0
    assert distance_norm_table(spec, [], [point] * 3).shape == (0, 3)
    assert distance_norm_table(spec, [point] * 2, []).shape == (2, 0)


# --- sampled values on a spec's grid --------------------------------------------------

@pytest.mark.parametrize("spec, x, y", [
    (mult_op(FN_GRID), FN_GRID, np.zeros(FN_GRID.size)),
    (periodic_fn(3.0, 8), 1.0, 2.5),
], ids=["mult-op", "periodic-fn"])
def test_sampled_values_share_the_spec_grid(spec, x, y):
    values = [eval_metric(spec, x, y), eval_metric(spec, y, x),
              codomain_scalar(spec, 0.5)]
    for d in values:
        built = sampled(spec.grid, d.data)
        assert d.realization == SAMPLED
        assert d.grid is values[0].grid
        assert d.grid.tobytes() == built.grid.tobytes()
        assert d.data.tobytes() == built.data.tobytes()
        assert not d.grid.flags.writeable and not d.data.flags.writeable
    # the values are still checked
    with pytest.raises(ValueError, match="finite"):
        codomain_scalar(spec, math.inf)


@pytest.mark.parametrize("name, grid, message", [
    (MULT_OP, (0.0, 1.0, math.inf), "finite"),
    (MULT_OP, (0.0, 1.0, 1.0), "increasing"),
    ("periodic-fn", (0.5, 0.25), "increasing"),
    ("periodic-fn", (0.5,), "two points"),
    ("periodic-fn", None, "two points"),
], ids=["mult-op-inf", "mult-op-tie", "periodic-decreasing", "periodic-short",
        "periodic-none"])
def test_values_on_a_grid_that_cannot_carry_them_are_refused(name, grid, message):
    # a spec built directly checks its grid as it is built, not at its first value
    with pytest.raises(ValueError, match=message):
        MetricSpec(name, SAMPLED, OrderKind.POSITIVE_CONE, NormKind.OPERATOR,
                   grid=grid)


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_periodic_fn_refuses_a_period_that_is_not_positive_and_finite(period):
    with pytest.raises(ValueError, match="period must be a positive finite number"):
        periodic_fn(period=period)


