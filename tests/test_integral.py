from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifix import contraction, integral, solver
from quasifix.algebra import NormKind, norm
from quasifix.integral import (
    GridMismatch,
    IntegralProblem,
    MONOTONE_STEPS,
    NotContractive,
    QuadratureKind,
    REGIME_CONTRACTIVE,
    REGIME_NOT_CONTRACTIVE,
    apply_T,
    closed_form_constant_integral,
    closed_form_identity_integral,
    contraction_rate,
    growth_value,
    make_problem,
    problem_metric,
    quadrature,
    quadrature_weights,
    regime_report,
    run_demo,
    uniform_grid,
)
from quasifix.metrics import codomain_scalar, eval_metric
from quasifix.solver import SolverConfig, picard_solve

from budget import examples


# --- quadrature ---------------------------------------------------------------

@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 4.0, 10.0])
def test_trapezoid_matches_closed_forms(k):
    prob = make_problem(0.5, k, n=10_000)
    g = prob.grid
    err_id = abs(quadrature(g / (g * g + k), prob)
                 - closed_form_identity_integral(k))
    err_const = abs(quadrature(1.0 / (g * g + k), prob)
                    - closed_form_constant_integral(k))
    assert err_id <= 1e-6
    assert err_const <= 1e-6


def test_quadrature_error_shrinks_with_refinement():
    k = 4.0
    errors = []
    for n in (512, 2048, 8192):
        prob = make_problem(0.5, k, n=n)
        report = regime_report(prob)
        errors.append(max(report.quadrature_errors.values()))
    assert errors[0] > errors[1] > errors[2]


def test_midpoint_log_weights_integrate_dt_over_t():
    # integral of t dt/t over [1/n, 1] is 1 - 1/n; the rule is sharp on
    # geometric grids and still serviceable on uniform ones
    geo = np.geomspace(1 / 4096, 1.0, 4096)
    prob = IntegralProblem(0.5, 4.0, tuple(geo), QuadratureKind.MIDPOINT_LOG)
    assert quadrature(geo, prob) == pytest.approx(1.0 - geo[0], abs=1e-6)
    uni = uniform_grid(4096)
    prob_uni = IntegralProblem(0.5, 4.0, tuple(uni), QuadratureKind.MIDPOINT_LOG)
    assert quadrature(uni, prob_uni) == pytest.approx(1.0 - uni[0], abs=1e-4)


# --- operator -------------------------------------------------------------------

def test_zero_function_is_fixed():
    prob = make_problem(0.5, 4.0, n=512)
    assert np.all(apply_T(np.zeros(512), prob) == 0.0)


def test_identity_seed_matches_closed_form():
    alpha, k = 0.5, 4.0
    prob = make_problem(alpha, k, n=10_000)
    g = prob.grid
    expected = 0.5 * alpha * math.log(1.0 + 1.0 / k) * g
    assert np.max(np.abs(apply_T(g, prob) - expected)) <= 1e-6


def test_constant_seed_matches_closed_form():
    alpha, k = 0.5, 4.0
    prob = make_problem(alpha, k, n=10_000)
    g = prob.grid
    expected = alpha * closed_form_constant_integral(k) * g
    assert np.max(np.abs(apply_T(np.ones(g.size), prob) - expected)) <= 1e-6


def test_operator_is_linear():
    prob = make_problem(0.7, 2.0, n=256)
    g = prob.grid
    f1, f2 = np.sin(3 * g), g ** 2
    lhs = apply_T(2.0 * f1 + 3.0 * f2, prob)
    rhs = 2.0 * apply_T(f1, prob) + 3.0 * apply_T(f2, prob)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_operator_output_is_a_multiple_of_the_grid():
    prob = make_problem(0.7, 2.0, n=256)
    g = prob.grid
    out = apply_T(np.cos(g), prob)
    ratio = out / g
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * max(1.0, abs(ratio[0]))


def test_grid_mismatch_is_rejected():
    prob = make_problem(0.5, 4.0, n=64)
    with pytest.raises(GridMismatch):
        apply_T(np.ones(32), prob)


# --- metric --------------------------------------------------------------------

def test_distance_asymmetry_factor_on_dominated_pairs():
    prob = make_problem(0.5, 4.0, n=128)
    g = prob.grid
    f_hi = g + 1.0
    metric = problem_metric(prob)
    d_hi_lo = eval_metric(metric, f_hi, g)
    d_lo_hi = eval_metric(metric, g, f_hi)
    n_hi = norm(d_hi_lo, NormKind.OPERATOR)
    n_lo = norm(d_lo_hi, NormKind.OPERATOR)
    assert abs(n_hi - 0.5 * n_lo) <= 1e-12
    # everything sits on the f > g branch
    assert np.all(d_hi_lo.data == 0.5 * (f_hi - g))


# --- regimes --------------------------------------------------------------------

def test_reference_parameters_are_contractive_without_growth():
    report = regime_report(make_problem(0.5, 4.0, n=512))
    assert report.regime == REGIME_CONTRACTIVE
    assert report.rate == pytest.approx(0.5 * math.atan(0.5) / 2.0, abs=1e-12)
    assert report.rate == pytest.approx(0.1159, abs=1e-4)
    assert report.growth == pytest.approx(0.25 * math.log(1.25), abs=1e-12)
    assert not report.tf0_exceeds_f0
    assert not report.iterates_increasing
    assert report.rate < report.rate_coarse_bound


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0, 50.0, 1e308])
def test_the_growth_threshold_is_where_growth_crosses_one(alpha):
    k = regime_report(make_problem(alpha, 4.0, n=64)).growth_threshold_k
    assert growth_value(alpha, k) == pytest.approx(1.0, rel=1e-12)
    assert growth_value(alpha, 0.5 * k) > 1.0 > growth_value(alpha, 2.0 * k)


def test_growth_keeps_its_value_where_one_over_k_is_below_an_ulp_of_one():
    # ln(1 + 1/k) as log(1.0 + 1.0 / k) rounds to 0 once 1/k < 2^-53
    assert growth_value(1.0, 1e17) == pytest.approx(5e-18, rel=1e-15)
    assert growth_value(2.0, 2.0 ** 60) == 2.0 ** -60


def test_tiny_alpha_is_trivially_contractive():
    report = regime_report(make_problem(1e-6, 1.0, n=128))
    assert report.regime == REGIME_CONTRACTIVE
    assert report.rate < 1e-5


@settings(max_examples=examples(200), deadline=None)
@given(alpha=st.floats(1e-3, 1e3), k=st.floats(1e-6, 1e6))
def test_growth_never_exceeds_the_rate(alpha, k):
    # y/(y^2 + k) <= 1/(y^2 + k) on (0, 1], so a growing identity seed
    # (growth above 1) needs a rate above 1: a contractive demo never grows
    assert growth_value(alpha, k) <= contraction_rate(alpha, k)


def test_growth_demand_conflicts_with_contraction():
    report = regime_report(make_problem(2.0, 0.3, n=512))
    assert report.growth > 1.0
    assert report.rate > 1.0
    assert report.regime == REGIME_NOT_CONTRACTIVE
    assert report.tf0_exceeds_f0
    assert report.iterates_increasing


@pytest.mark.parametrize("alpha, k, applied", [
    (3.0, 0.01, MONOTONE_STEPS), (0.5, 2.0, 1), (0.9, 2.0, 1),
], ids=["growing", "contractive", "contractive-slow"])
def test_the_monotone_walk_maps_only_what_it_compares(monkeypatch, alpha, k, applied):
    # T f0 > f0 is the walk's first comparison; a growing orbit compares
    # MONOTONE_STEPS pairs of T^0 f0 .. T^MONOTONE_STEPS f0, and T f0 < f0
    # ends the walk at its first
    calls = []
    monkeypatch.setattr(integral, "apply_T", lambda f, p: calls.append(f) or apply_T(f, p))
    report = regime_report(make_problem(alpha, k, n=64))
    assert len(calls) == applied
    assert report.tf0_exceeds_f0 == report.iterates_increasing == (applied > 1)


# --- demo ------------------------------------------------------------------------

def test_demo_converges_to_the_zero_function():
    # the operator is rank one with range along the grid; a fixed point
    # c * grid needs c = c * growth, so only c = 0 works when growth != 1
    prob = make_problem(0.5, 4.0, n=2048)
    report = run_demo(prob, SolverConfig(tol=1e-8, max_iter=100))
    assert report.solver["converged"]
    assert report.solver["fixed_point_sup"] <= 1e-7
    assert report.equation_residual <= 1e-8
    assert report.solver["bound_envelope_ok"]


def test_demo_zero_seed_is_immediate():
    prob = make_problem(0.5, 4.0, n=256, f0=np.zeros(256))
    report = run_demo(prob, SolverConfig(tol=1e-8, max_iter=10))
    assert report.solver["iterations"] == 1
    assert report.equation_residual == 0.0


@pytest.mark.parametrize("kind", list(QuadratureKind), ids=[k.value for k in QuadratureKind])
@pytest.mark.parametrize("n", [300, 1500, 4000])
def test_demo_follows_the_rank_one_closed_form(kind, n):
    # T f = alpha <w/(g^2+k), f> g, so the orbit of f0 = g is c_n g with
    # c_n = rho^n, rho = alpha <w, g/(g^2+k)>; the grid's largest point is 1
    alpha, k, tol = 0.6, 2.0, 1e-8
    prob = make_problem(alpha, k, n=n, quadrature=kind)
    g = prob.grid
    rho = alpha * quadrature(g / (g * g + k), prob)
    c, steps = 1.0, []
    while not steps or steps[-1] > tol:
        # the forward step from c g to rho c g: (1/2)(c - rho c) at x = 1
        steps.append(0.5 * (c - rho * c))
        c *= rho
    # the closed form decides the stop clearly, not within rounding of tol
    assert all(abs(step - tol) > 1e-6 * tol for step in steps[-2:])
    report = run_demo(prob, SolverConfig(tol=tol, max_iter=200))
    assert report.solver["iterations"] == len(steps)
    assert report.solver["fixed_point_sup"] == pytest.approx(c, rel=1e-12)
    assert report.solver["residual_forward"] == pytest.approx(0.5 * c * (1.0 - rho),
                                                              rel=1e-12)
    assert report.equation_residual == pytest.approx(c * (1.0 - rho), rel=1e-12)


@settings(max_examples=examples(30), deadline=None)
@given(rate=st.floats(0.05, 0.95), k=st.floats(0.05, 20.0), n=st.integers(2, 400),
       kind=st.sampled_from(QuadratureKind))
def test_the_equation_residual_is_the_explicit_sup_norm(rate, k, n, kind):
    # the demo reads max |f* - Tf*| from the solver's residual pair; it is
    # the explicit formula bit for bit
    rk = math.sqrt(k)
    prob = make_problem(rate * rk / math.atan(1.0 / rk), k, n=n, quadrature=kind)
    report = run_demo(prob)
    fstar = report.solution
    explicit = float(np.max(np.abs(fstar - apply_T(fstar, prob))))
    assert report.equation_residual.hex() == explicit.hex()


def test_demo_refuses_non_contractive_parameters():
    with pytest.raises(NotContractive):
        run_demo(make_problem(2.0, 0.3, n=128))


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem(-1.0, 1.0)
    with pytest.raises(ValueError):
        IntegralProblem(0.5, 4.0, (0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        IntegralProblem(0.5, 4.0, (0.5, 0.25, 1.0))
    with pytest.raises(ValueError, match="f0 must be sampled on the grid"):
        IntegralProblem(0.5, 4.0, (0.25, 0.5, 1.0), f0=(1.0, 2.0))


@pytest.mark.parametrize("alpha, k", [
    (math.nan, 4.0), (math.inf, 4.0), (0.5, math.nan), (0.5, math.inf),
    (-math.inf, 4.0), (0.5, -math.inf),
])
def test_a_parameter_that_is_not_finite_is_refused(alpha, k):
    # a NaN rate would read as "not-contractive", and an infinite alpha
    # divides by zero in regime_report
    with pytest.raises(ValueError, match="alpha and k must be positive and finite"):
        make_problem(alpha, k, n=16)


# --- per-problem state built once ---------------------------------------------------

@pytest.mark.parametrize("kind", list(QuadratureKind))
def test_problem_state_is_built_once_and_read_only(kind):
    prob = make_problem(0.5, 4.0, n=64, quadrature=kind)
    g = prob.grid
    assert isinstance(g, np.ndarray) and g.tobytes() == uniform_grid(64).tobytes()
    with pytest.raises(ValueError):
        g[0] = 0.5
    w = prob.weights
    assert prob.weights is w
    assert np.array_equal(w, quadrature_weights(g, kind))
    with pytest.raises(ValueError):
        w[0] = 0.0
    d = prob.denominator
    assert prob.denominator is d
    assert d.tobytes() == (g * g + prob.k).tobytes()
    with pytest.raises(ValueError):
        d[0] = 1.0
    metric = problem_metric(prob)
    assert problem_metric(prob) is metric
    # the problem's grid is the spec's one checked copy, which the spec's
    # sampled values share
    assert metric.grid is g
    assert codomain_scalar(metric, 0.5).grid is metric.grid
    # the default seed x -> x is the grid array itself; a given one is a
    # read-only copy
    assert prob.f0 is g
    seed = np.full(64, 0.25)
    f0 = make_problem(0.5, 4.0, n=64, quadrature=kind, f0=seed).f0
    assert f0 is not seed and f0.tolist() == [0.25] * 64
    with pytest.raises(ValueError):
        f0[0] = 1.0
    # problems compare by identity
    assert make_problem(0.5, 4.0, n=64, quadrature=kind) != prob and prob == prob


def test_run_demo_maps_and_checks_every_walked_step(monkeypatch, one_pair_calls):
    prob = make_problem(0.5, 2.0, n=512)
    report = regime_report(prob)
    applied, paired, stacked = [], [], []
    monkeypatch.setattr(integral, "apply_T", lambda f, p: applied.append(f) or apply_T(f, p))
    for module in (contraction, solver):
        monkeypatch.setattr(module, "_paired_on", lambda *args, _f=module._paired_on:
                            paired.append(args) or _f(*args))
    points = solver._points
    monkeypatch.setattr(solver, "_points", lambda *args: stacked.append(args) or points(*args))
    failures = solver._failures
    checked = []
    monkeypatch.setattr(solver, "_failures",
                        lambda *args: checked.append(args) or failures(*args))
    run_demo(prob, SolverConfig(tol=1e-8, max_iter=200), report)
    n = report.solver["iterations"]
    assert report.solver["converged"] and n == 9
    # the certificate maps f0 once for its distance d(f0, T f0) and its
    # shortest orbit (4 steps) once; the solve maps each of its n iterates
    # and the fixed point for the residual, which the demo's residual reads
    assert len(applied) == 1 + 4 + n + 1
    # one paired evaluation of the orbit's steps in the certificate; in the
    # solve, one of both orders per step, the residual's included; only the
    # certificate's d(f0, T f0) is one pair at a time
    assert len(paired) == 1 + (n + 1)
    assert len(one_pair_calls) == 1
    # the solver checks f0 with its image, then each new point once, the
    # fixed point's image last, and no point again for its tails and its
    # checked samples
    assert [len(args[1]) for args in stacked] == [2] + [1] * n
    assert np.array_equal(stacked[-2][1][0], report.solution)
    # one check of the n walked samples, under the certificate's a
    (regime, _, a, lhs, base, tol), = checked
    assert regime is contraction.Regime.ORBITAL and tol == 1e-8
    assert len(lhs) == len(base) == n
    assert report.solver["fixed_point_certified"]
    assert not report.solution.flags.writeable
    assert report.solution.shape == prob.grid.shape
    assert np.max(np.abs(report.solution)) == report.solver["fixed_point_sup"]


def _long_orbit_certificate(prob):
    """The demo's coefficient checked on 30 steps of the orbit of f0."""
    metric = problem_metric(prob)
    a = codomain_scalar(metric, math.sqrt(contraction_rate(prob.alpha, prob.k)))
    return contraction.verify_orbital_type(integral.integral_operator(prob), metric, a,
                                           prob.f0, 30)


@settings(max_examples=examples(40), deadline=None)
@given(rate=st.floats(0.10, 0.45), k=st.floats(1.0, 6.0), n=st.integers(64, 512),
       kind=st.sampled_from(QuadratureKind))
def test_the_demo_certifies_every_step_its_solve_walks(rate, k, n, kind):
    # the benchmark decks' rates and k, at small grids: no walked step fails
    # the certificate's inequality, and the demo's report and solution are
    # those of a solve under a certificate of a longer orbit
    rk = math.sqrt(k)
    prob = make_problem(rate * rk / math.atan(1.0 / rk), k, n=n, quadrature=kind)
    cfg = SolverConfig(tol=1e-9, max_iter=200)
    cert = integral.demo_certificate(prob)
    assert cert.samples_checked == 3 and cert.valid
    assert picard_solve(cert, prob.f0, cfg).failing_samples == 0
    report = run_demo(prob, cfg)
    assert report.solver["fixed_point_certified"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integral, "demo_certificate", _long_orbit_certificate)
        full = run_demo(prob, cfg)
    assert json.dumps(report.to_json_dict()) == json.dumps(full.to_json_dict())
    assert report.solution.tobytes() == full.solution.tobytes()


@pytest.mark.parametrize("alpha, k, f0", [
    (0.5, 2.0, None),
    (0.5, 2.0, np.zeros(64)),        # f0 is the fixed point: d1 = 0
    (0.5, 2.0, np.full(64, 1e-12)),  # d1 <= tol
    (1e-300, 1e300, None),           # the rate underflows to 0
], ids=["default", "fixed", "close", "zero-rate"])
def test_the_demo_certificate_checks_the_shortest_orbit(alpha, k, f0):
    prob = make_problem(alpha, k, n=64, f0=f0)
    cert = integral.demo_certificate(prob)
    # orbit length 2: 5 rows, 4 steps, 3 samples
    assert cert.samples_checked == 3 and cert.valid
    assert run_demo(prob, SolverConfig(tol=1e-9)).solver["fixed_point_certified"]


def test_a_slow_demo_checks_every_step_it_walks():
    # rate 0.6 under the log-midpoint rule takes 39 steps to 1e-9, far past
    # the certificate's orbit; each of them is checked, and none fails
    prob = make_problem(0.7639437268410976, 1.0, n=512,
                        quadrature=QuadratureKind.MIDPOINT_LOG)
    assert contraction_rate(prob.alpha, prob.k) == pytest.approx(0.6)
    cfg = SolverConfig(tol=1e-9, max_iter=200)
    solved = picard_solve(integral.demo_certificate(prob), prob.f0, cfg)
    assert solved.iterations == 39 and solved.failing_samples == 0
    report = run_demo(prob, cfg)
    assert report.solver["iterations"] == 39
    assert report.solver["fixed_point_certified"]
