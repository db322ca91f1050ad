from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifix.algebra import (
    NormKind,
    OrderKind,
    RealizationMismatch,
    allclose,
    leq,
    mat2,
    norm,
    scalar,
)
from quasifix.metrics import (
    AxiomReport,
    DomainMismatch,
    MetricSpec,
    check_axioms,
    distance_norm,
    eval_metric,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    register_evaluator,
    reversed_metric,
    scalar_backward_one,
    scalar_forward_one,
    _component_table,
)

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
# through eval_metric, the algebra's add, norm and leq.
def _check_axioms_generic(spec: MetricSpec, points: list,
                          tol: float) -> AxiomReport:
    n = len(points)
    report = AxiomReport(metric=spec.name, tol=tol,
                         pairs_tested=n * n, triples_tested=n * n * n)
    table = [[eval_metric(spec, x, y) for y in points] for x in points]

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
    t = spec.grid_array
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

def _squared_gap(spec, x, y):
    return scalar((x - y) ** 2)


def test_broken_metric_violations_recheck_and_serialize():
    register_evaluator("squared-gap", _squared_gap)
    from quasifix.metrics import MetricSpec
    spec = MetricSpec("squared-gap", "scalar", OrderKind.POSITIVE_CONE,
                      NormKind.OPERATOR)
    report = check_axioms(spec, [0.0, 1.0, 2.0], tol=1e-9)
    # d(0,2) = 4 exceeds d(0,1) + d(1,2) = 2
    assert not report.triangle_ok
    assert report.identity_ok and report.positivity_ok
    assert report.recheck(spec)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["passed"] is False
    assert payload["triangle_violations"]


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
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_the_element_by_element_reference(spec, seed):
    points = _sample_points(np.random.default_rng(seed), spec)
    assert _outcome(check_axioms(spec, points)) == \
        _outcome(_check_axioms_generic(spec, points, tol=1e-9))


BINDING_SPECS = SWEEP_SPECS + [periodic_fn(3.0, 8)]


@pytest.mark.parametrize("spec", BINDING_SPECS, ids=_spec_id)
@settings(max_examples=40, deadline=None)
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
        # the one-pair form must reject some pair as well
        with pytest.raises(DomainMismatch):
            for x in points:
                for y in points:
                    eval_metric(spec, x, y)
        return
    assert table.shape[:2] == (len(points), len(points))
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            d = eval_metric(spec, x, y)
            want = np.diagonal(d.data) if d.realization == "mat2" else np.ravel(d.data)
            assert table[i, j].tobytes() == want.tobytes()


@pytest.mark.parametrize("spec, points, message", [
    (mat2_split(), [0.0, float("nan")], "finite reals"),
    (mat2_split(), [float("inf"), 0.0], "finite reals"),
    (mat2_split(), [[0.0, 1.0]], "finite reals"),
    (mat2_split(), [1e308, -1e308, 0.0], "overflows"),
    (periodic_fn(3.0, 8), [1e308, 0.0], "overflows"),
    (scalar_forward_one(), [-1e308, 1e308], "overflows"),
    (mult_op(FN_GRID), [np.ones(3)], "grid"),
    (mult_op(FN_GRID), [np.full(4, 1e308), np.full(4, -1e308)], "overflows"),
], ids=["nan", "inf", "not-real", "mat2-overflow", "periodic-overflow",
        "scalar-overflow", "fn-shape", "fn-overflow"])
def test_sweep_rejects_points_and_distances_eval_metric_rejects(spec, points,
                                                                message):
    with pytest.raises(DomainMismatch, match=message):
        check_axioms(spec, points)


@pytest.mark.parametrize("spec, x, y", [
    (mat2_split(), 1e308, -1e308),
    (mat2_split_scaled(0.5), -1.7e308, 1e308),
    (periodic_fn(3.0, 8), 1e308, 0.0),
    (periodic_fn(3.0, 8), 0.0, 1e308),
    (scalar_forward_one(), -1e308, 1e308),
    (scalar_backward_one(), 1e308, -1e308),
    (mult_op(FN_GRID), np.full(4, -1e308), np.full(4, 1e308)),
], ids=["mat2-split", "mat2-split-scaled", "periodic-up", "periodic-down",
        "scalar-forward-one", "scalar-backward-one", "mult-op"])
def test_eval_metric_rejects_overflowing_distances(spec, x, y):
    with pytest.raises(DomainMismatch, match="overflows"):
        eval_metric(spec, x, y)


@pytest.mark.parametrize("spec", [periodic_fn(), scalar_forward_one(),
                                  mult_op(FN_GRID)], ids=_spec_id)
def test_entrywise_order_is_refused_off_mat2(spec):
    spec = replace(spec, order=OrderKind.ENTRYWISE)
    with pytest.raises(RealizationMismatch):
        check_axioms(spec, [])


def test_non_diagonal_values_are_not_compared_componentwise():
    register_evaluator("skewed", lambda spec, x, y: mat2(0.0, x - y, y - x, 0.0))
    spec = MetricSpec("skewed", "mat2", OrderKind.POSITIVE_CONE, NormKind.OPERATOR)
    with pytest.raises(ValueError, match="diagonal"):
        check_axioms(spec, [0.0, 1.0])


def test_triangle_sweep_memory_is_quadratic_in_the_sample_count():
    # 61 points x 64 samples: the table is 1.9 MB; a sweep that holds all
    # n^3 triples at once needs over 100 MB per temporary
    tracemalloc.start()
    try:
        report = check_axioms(periodic_fn(1.0, 64), np.linspace(-2, 2, 61), tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2**20
