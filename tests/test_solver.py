from __future__ import annotations

import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasifix import integral, solver
from quasifix.algebra import (
    NormKind,
    NotPositive,
    allclose,
    diag2,
    is_positive,
    mat2,
    mul,
    norm,
    sampled,
    scalar,
)
from quasifix.contraction import (
    ContractionCertificate,
    Regime,
    certificate_from_json,
    verify,
    verify_orbital_type,
)
from quasifix.convergence import orbital_lsc_check
from quasifix.maps import MapSpec, linear_quarter, piecewise_quarter
from quasifix.metrics import (
    codomain_scalar,
    eval_metric,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    reversed_metric,
    scalar_backward_one,
    scalar_forward_one,
)
from quasifix.solver import (
    CertificateInvalid,
    RateNotLessThanOne,
    SolverConfig,
    apriori_envelope,
    picard_solve,
    uniqueness_probe,
)

from budget import examples
from lemma_checks import random_psd
from reference_metrics import reference_distance_norm
from reference_algebra import reference_norm, sqrt_positive

GRID = np.linspace(-3.0, 7.0, 21)


@pytest.fixture(scope="module")
def sandwich_cert() -> ContractionCertificate:
    return verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                  diag2(0.5, 0.5), points=GRID, tol=1e-12)


# --- picard iteration -------------------------------------------------------------

def test_quarter_map_reaches_zero_quickly(sandwich_cert):
    cfg = SolverConfig(tol=1e-10)
    report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 1.0,
                          sandwich_cert, cfg)
    assert report.converged
    assert report.iterations <= 20
    assert abs(report.fixed_point) <= 1e-9
    assert report.residual_forward <= 1e-10
    assert report.residual_backward <= 1e-10
    assert report.fixed_point_certified


def test_fixed_seed_returns_in_one_iteration(sandwich_cert):
    report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 0.0,
                          sandwich_cert, SolverConfig(tol=1e-10))
    assert report.iterations == 1
    assert report.residual_forward == 0.0
    assert report.residual_backward == 0.0


def test_orbital_run_accepts_through_the_lsc_gate():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0, orbit_len=30)
    report = picard_solve(piecewise_quarter(), scalar_backward_one(), 1.0,
                          cert, SolverConfig(tol=1e-10))
    assert report.converged
    assert report.lsc_check
    assert report.fixed_point_certified
    # backward residual stays at 1: the metric reports 1 whenever x < y
    assert report.residual_backward == 1.0


def test_invalid_certificate_is_refused():
    bad = verify(Regime.FORWARD_GLOBAL, piecewise_quarter(), scalar_backward_one(),
                 scalar(0.9), points=[0.0, 1.0])
    assert not bad.valid
    with pytest.raises(CertificateInvalid):
        picard_solve(piecewise_quarter(), scalar_backward_one(), 1.0, bad,
                     SolverConfig())


def test_max_iter_flags_but_returns_the_report(sandwich_cert):
    cfg = SolverConfig(max_iter=3, tol=1e-300)
    report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 1.0,
                          sandwich_cert, cfg)
    assert report.max_iter_exceeded
    assert not report.converged
    assert len(report.trace.points) == 4


# --- a-priori bounds ---------------------------------------------------------------

def test_bound_plugin_value():
    # head 3/4, rate 1/2, p = 4: (3/4) * (1/16) / (1/2) = 3/32
    b4 = apriori_envelope(scalar(0.75), 0.5, 5)[4]
    assert b4 == pytest.approx(3 / 32, abs=1e-14)


def test_bound_head_and_ratio():
    envelope = apriori_envelope(scalar(0.75), 0.25, 6)
    assert envelope[0] == pytest.approx(0.75 / (1 - 0.25), abs=1e-14)
    assert envelope[5] / envelope[4] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.25, float("nan")])
def test_bound_requires_contractive_rate(rate):
    with pytest.raises(RateNotLessThanOne):
        apriori_envelope(scalar(1.0), rate, 1)


def test_envelope_covers_both_argument_orders(sandwich_cert):
    cfg = SolverConfig(tol=1e-10)
    for seed in (-3.0, 0.5, 7.0):
        report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), seed,
                              sandwich_cert, cfg)
        assert report.bound_envelope_ok
        assert report.predicted_bounds_rev is not None
        for obs, bound in zip(report.observed_tail, report.predicted_bounds):
            assert obs <= bound + 1e-10
        for obs, bound in zip(report.observed_tail_rev,
                              report.predicted_bounds_rev):
            assert obs <= bound + 1e-10


def test_one_step_decay_under_the_sandwich(sandwich_cert):
    report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 7.0,
                          sandwich_cert, SolverConfig(tol=1e-10))
    rate = 0.25  # operator norm of the coefficient, squared
    steps = report.trace.bwd_step_norms
    for prev, cur in zip(steps, steps[1:]):
        assert cur <= rate * prev + 1e-10


def test_one_sided_rate_matches_the_resolvent_coefficient():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=30)
    cfg = SolverConfig(max_iter=30, tol=1e-300)
    report = picard_solve(linear_quarter(), scalar_backward_one(), 1.0,
                          cert, cfg)
    assert report.rate == pytest.approx(0.5, abs=1e-12)
    steps = report.trace.fwd_step_norms
    assert len(steps) == 30
    for prev, cur in zip(steps, steps[1:]):
        assert cur <= 0.5 * prev + 1e-10
    # only the (old, new) order carries a predicted envelope here
    assert report.predicted_bounds_rev is None
    assert report.bound_envelope_ok


def test_two_step_certificate_sets_the_rate_under_the_default_config():
    # a = 0.2 I: h = a (I - a)^-1 = 0.25 I, while ||a||^2 would be 0.04
    cert = verify(Regime.TWO_STEP, piecewise_quarter(), periodic_fn(),
                  codomain_scalar(periodic_fn(), 0.2), seed=1.0, orbit_len=30)
    assert cert.valid
    report = picard_solve(piecewise_quarter(), periodic_fn(), 2.0, cert,
                          SolverConfig())
    assert report.rate == cert.h_norm
    assert report.rate == pytest.approx(0.25, abs=1e-12)
    assert report.bound_mode == "one-sided"
    assert report.predicted_bounds_rev is None
    assert report.bound_envelope_ok


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_config_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=tol)


# --- uniqueness --------------------------------------------------------------------

def test_uniqueness_probe_spread(sandwich_cert):
    spread = uniqueness_probe(linear_quarter(), mat2_split_scaled(0.25),
                              sandwich_cert, [-3.0, 0.5, 7.0],
                              SolverConfig(tol=1e-10))
    assert spread <= 2e-10


def test_uniqueness_probe_single_seed(sandwich_cert):
    assert uniqueness_probe(linear_quarter(), mat2_split_scaled(0.25),
                            sandwich_cert, [1.0], SolverConfig(tol=1e-10)) == 0.0


def test_uniqueness_probe_refuses_orbital_certificates():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0)
    with pytest.raises(CertificateInvalid):
        uniqueness_probe(piecewise_quarter(), scalar_backward_one(), cert,
                         [1.0, 2.0])


# --- determinism and export ----------------------------------------------------------

def test_reports_are_deterministic(sandwich_cert):
    cfg = SolverConfig(tol=1e-10)
    first = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 0.5,
                         sandwich_cert, cfg)
    second = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 0.5,
                          sandwich_cert, cfg)
    assert json.dumps(first.to_json_dict(), sort_keys=True) == \
        json.dumps(second.to_json_dict(), sort_keys=True)


def test_trace_csv_columns(tmp_path, sandwich_cert):
    report = picard_solve(linear_quarter(), mat2_split_scaled(0.25), 1.0,
                          sandwich_cert, SolverConfig(tol=1e-10))
    out = tmp_path / "trace.csv"
    report.trace.write_csv(out, report.predicted_bounds)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,x_n,fwd_step_norm,bwd_step_norm,bound_p"
    assert len(lines) == len(report.trace.points) + 1


# --- envelope head -------------------------------------------------------------------

def test_sqrt_examples():
    assert allclose(sqrt_positive(diag2(4, 9)), diag2(2, 3))
    assert float(sqrt_positive(scalar(0.0)).data) == 0.0
    y = 1.7
    root = sqrt_positive(diag2(0.75 * y, 0.0))
    assert allclose(mul(root, root), diag2(0.75 * y, 0.0), tol=1e-12)


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        sqrt_positive(diag2(-1.0, 1.0))


def test_sqrt_of_non_diagonal_psd():
    a = random_psd(np.random.default_rng(3))
    root = sqrt_positive(a)
    assert is_positive(root)
    assert allclose(mul(root, root), a, tol=1e-10)


def _old_head(d1):
    """The head as computed through the square root: ||d1^(1/2)||^2."""
    return reference_norm(sqrt_positive(d1), NormKind.OPERATOR) ** 2


FN_GRID = np.linspace(0.125, 1.0, 5)
STEP_METRICS = [mat2_split(), mat2_split_scaled(0.25), periodic_fn(2.0, 16),
                scalar_forward_one(), scalar_backward_one()]
MAGNITUDE = st.floats(1e-6, 1e6) | st.just(0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_envelope_head_matches_the_square_root_head(data):
    # first step distances of catalog metrics (diagonal 2x2, sampled and
    # scalar values), and positive sampled values
    kind = data.draw(st.sampled_from(["catalog", "mult-op", "sampled"]))
    if kind == "catalog":
        spec = data.draw(st.sampled_from(STEP_METRICS))
        x, y = data.draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
        d1 = eval_metric(spec, x, y)
    elif kind == "mult-op":
        f, g = (np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5)))
                for _ in range(2))
        d1 = eval_metric(mult_op(FN_GRID), f, g)
    else:
        d1 = sampled(FN_GRID, data.draw(st.lists(MAGNITUDE, min_size=5, max_size=5)))
    old = _old_head(d1)
    new = apriori_envelope(d1, 0.0, 1)[0]  # B_0 at rate 0 is the head itself
    assert new == norm(d1, NormKind.OPERATOR)
    assert abs(new - old) <= 4 * math.ulp(max(old, new))


@settings(max_examples=200, deadline=None)
@given(b=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), c=MAGNITUDE)
# a head whose square underflows: the 2x2 norm once returned 0 for it
@example(b=[0.0, 0.0, 0.0, 1.0], c=2.73e-273)
def test_envelope_head_of_a_positive_matrix_is_its_top_eigenvalue(b, c):
    # c * b^T b is positive with an off-diagonal entry; the square root's
    # rotation is up to 7 ulp off the top eigenvalue, the norm within 2
    off = c * (b[0] * b[1] + b[2] * b[3])
    d1 = mat2(c * (b[0] * b[0] + b[2] * b[2]), off, off, c * (b[1] * b[1] + b[3] * b[3]))
    p, q, r = (Decimal(float(v)) for v in (d1.data[0, 0], off, d1.data[1, 1]))
    with localcontext() as ctx:
        ctx.prec = 60
        top = float((p + r) / 2 + (((p - r) / 2) ** 2 + q * q).sqrt())
    new = apriori_envelope(d1, 0.0, 1)[0]
    assert abs(new - top) <= 2 * math.ulp(top)
    assert abs(_old_head(d1) - top) <= 8 * math.ulp(top)


# --- each distance once ---------------------------------------------------------------

def _counted(map_spec, applied):
    return MapSpec(map_spec.name, lambda x: applied.append(x) or map_spec.apply(x))


def _certificate(regime, metric, c=0.5):
    """A certificate of rate c^2 whose one recorded sample nothing checked:
    the solver trusts it (a certificate of no sample it refuses)."""
    a = codomain_scalar(metric, c)
    return ContractionCertificate(regime, a, NormKind.OPERATOR, c, 1, ())


@pytest.mark.parametrize("regime, map_spec, metric, seed", [
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25), 7.0),
    (Regime.ORBITAL, piecewise_quarter(), scalar_backward_one(), -3.0),
    (Regime.ORBITAL, linear_quarter(), mult_op(FN_GRID), FN_GRID),
], ids=["forward-mat2", "orbital-scalar", "orbital-mult-op"])
def test_solve_evaluates_each_distance_once(monkeypatch, one_pair_calls, regime,
                                            map_spec, metric, seed):
    applied, paired = [], []
    paired_on = solver._paired_on
    monkeypatch.setattr(solver, "_paired_on",
                        lambda *args: paired.append(args) or paired_on(*args))
    report = picard_solve(_counted(map_spec, applied), metric, seed,
                          _certificate(regime, metric), SolverConfig(tol=1e-10))
    assert report.converged and report.iterations > 2
    # one paired evaluation for the step pair of every iteration, and the
    # residual pair one pair at a time; the tails and d1 are not evaluated
    # again, and the LSC gate reads the steps
    x_n, after = report.fixed_point, map_spec.apply(report.fixed_point)
    assert len(one_pair_calls) == 2
    for (_, x, y), pair in zip(one_pair_calls, [(x_n, after), (after, x_n)]):
        assert np.array_equal((x, y), pair)
    assert len(paired) == report.iterations
    assert len(applied) == report.iterations + 1


SOLVE_METRICS = STEP_METRICS + [mult_op(FN_GRID)]
# seeds whose distances have squares beyond the float range
SOLVE_SEED = st.floats(-1e3, 1e3) | st.sampled_from([3e-200, -1e-170, 1e200, -5e300])


@pytest.mark.parametrize("metric", SOLVE_METRICS, ids=lambda m: m.name)
@settings(max_examples=examples(25), deadline=None)
@given(kind=st.sampled_from(NormKind), slope=st.floats(-0.9, 0.9),
       shift=st.floats(-1.0, 1.0), seed=SOLVE_SEED, max_iter=st.integers(1, 12))
def test_step_and_residual_norms_are_the_reference_norms(metric, kind, slope, shift,
                                                        seed, max_iter):
    metric = replace(metric, norm=kind)
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        seed = seed * FN_GRID
    report = picard_solve(map_spec, metric, seed,
                          _certificate(Regime.FORWARD_GLOBAL, metric),
                          SolverConfig(max_iter=max_iter, tol=1e-10))

    def want(x, y):
        return reference_distance_norm(metric, x, y).hex()

    pts = report.trace.points
    x_n, after = report.fixed_point, map_spec.apply(report.fixed_point)
    assert [v.hex() for v in report.trace.fwd_step_norms] == \
        [want(x, y) for x, y in zip(pts, pts[1:])]
    assert [v.hex() for v in report.trace.bwd_step_norms] == \
        [want(y, x) for x, y in zip(pts, pts[1:])]
    assert report.residual_forward.hex() == want(x_n, after)
    assert report.residual_backward.hex() == want(after, x_n)
    # the observed tails d(x_p, x_N) and d(x_N, x_p), in the operator norm
    op = NormKind.OPERATOR
    assert [v.hex() for v in report.observed_tail] == \
        [reference_distance_norm(metric, p, x_n, op).hex() for p in pts[:-1]]
    assert [v.hex() for v in report.observed_tail_rev] == \
        [reference_distance_norm(metric, x_n, p, op).hex() for p in pts[:-1]]


JUMP = MapSpec("jump-half", lambda x: x / 2.0 if x > 0 else 1.0)
# steps of 0.3 down to the first point at or below 0, then back to 1: under
# scalar-backward-one G = 0.3 above 0 and G = 1 at or below it
DROP = MapSpec("drop", lambda x: x - 0.3 if x > 0 else 1.0)
# under scalar-forward-one G(x) = x on the orbit of a positive seed, least at
# the start of the trailing half
DOUBLE = MapSpec("double", lambda x: 2.0 * x)
LSC_MAPS = {"linear-quarter": linear_quarter(), "piecewise-quarter": piecewise_quarter(),
            "jump-half": JUMP, "drop": DROP, "double": DOUBLE}


@settings(max_examples=examples(100), deadline=None)
@given(map_name=st.sampled_from(sorted(LSC_MAPS)),
       metric=st.sampled_from([scalar_backward_one(), scalar_forward_one(),
                               mat2_split(), periodic_fn(2.0, 8)]),
       seed=st.floats(-4.0, 4.0), max_iter=st.integers(1, 40),
       tol=st.sampled_from([1e-10, 1e-3, 0.35]))
@example(map_name="drop", metric=scalar_backward_one(), seed=1.0, max_iter=4,
         tol=1e-10)
@example(map_name="jump-half", metric=scalar_backward_one(), seed=1.0,
         max_iter=40, tol=1e-10)
@example(map_name="double", metric=scalar_forward_one(), seed=1.0, max_iter=3,
         tol=1e-10)
def test_solver_lsc_verdict_is_orbital_lsc_check(map_name, metric, seed, max_iter, tol):
    map_spec = LSC_MAPS[map_name]
    report = picard_solve(map_spec, metric, seed, _certificate(Regime.ORBITAL, metric),
                          SolverConfig(max_iter=max_iter, tol=tol))
    assert report.lsc_check is orbital_lsc_check(
        list(report.trace.points), report.fixed_point, map_spec, metric, tol)


def test_solver_lsc_gate_fails_after_a_jump():
    # 1, 0.7, 0.4, 0.1, -0.2: G falls to 0.3 and jumps to 1 at the last point
    report = picard_solve(DROP, scalar_backward_one(), 1.0,
                          _certificate(Regime.ORBITAL, scalar_backward_one()),
                          SolverConfig(max_iter=4))
    assert report.trace.points[-1] == pytest.approx(-0.2)
    assert report.lsc_check is False
    assert not report.fixed_point_certified


def _reference_spread(metric, points):
    """The largest norm of d(p, q) over both orders of every pair of points,
    one pair at a time, by the reference formulas."""
    spread = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            spread = max(spread, reference_distance_norm(metric, points[i], points[j]),
                         reference_distance_norm(metric, points[j], points[i]))
    return spread


@settings(max_examples=examples(25), deadline=None)
@given(metric=st.sampled_from([mat2_split(), mat2_split_scaled(0.25), periodic_fn(2.0, 8),
                               scalar_forward_one(), scalar_backward_one()]),
       seeds=st.lists(st.floats(-8.0, 8.0), max_size=5),
       tol=st.sampled_from([1e-10, 1e-3, 0.1]))
def test_uniqueness_spread_is_the_one_pair_loop(metric, seeds, tol):
    # a loose tol leaves the fixed points apart
    cert = _certificate(Regime.FORWARD_GLOBAL, metric)
    cfg = SolverConfig(tol=tol)
    points = [picard_solve(linear_quarter(), metric, s, cert, cfg).fixed_point for s in seeds]
    spread = uniqueness_probe(linear_quarter(), metric, cert, seeds, cfg)
    assert spread.hex() == _reference_spread(metric, points).hex()


# --- the certificate's checked orbit ------------------------------------------------

def _hexed(value):
    """A JSON value with every float as its hex text, so that equal values
    are equal bit for bit (-0.0 is not 0.0)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _with_and_without_orbit(map_spec, metric, seed, cert, cfg):
    """The hexed JSON report, the report and the applications of T, of the
    solve under ``cert`` and under ``cert`` without its orbit."""
    runs = []
    for c in (cert, replace(cert, orbit=None)):
        applied = []
        report = picard_solve(_counted(map_spec, applied), metric, seed, c, cfg)
        runs.append((_hexed(report.to_json_dict()), report, len(applied)))
    return runs


def _demo_parts(rate, k, n, kind=integral.QuadratureKind.TRAPEZOID):
    """The demo problem of contraction rate ``rate``, its operator, metric
    and seed, and its orbital certificate."""
    rk = math.sqrt(k)
    prob = integral.make_problem(rate * rk / math.atan(1.0 / rk), k, n=n, quadrature=kind)
    return (prob, integral.integral_operator(prob), integral.problem_metric(prob),
            prob.f0_array, integral.demo_certificate(prob))


def _assert_the_orbit_was_used(cert, runs, max_iter):
    """Both solves gave the same report; the one with the orbit applied T to
    the seed (the check of row 1), past the known rows and at the residual."""
    (json_with, report, applied_with), (json_without, _, applied_without) = runs
    assert json_with == json_without
    known = min(len(cert.orbit.steps), max_iter)
    assert applied_with == 2 + max(0, report.iterations - known)
    assert applied_without == report.iterations + 1


@settings(max_examples=examples(40), deadline=None)
@given(rate=st.floats(0.05, 0.95), k=st.floats(0.2, 8.0), n=st.integers(2, 300),
       kind=st.sampled_from(integral.QuadratureKind),
       tol=st.sampled_from([1e-12, 1e-8, 1e-3]),
       max_iter=st.sampled_from([1, 5, 31, 32, 33, 200]))
def test_the_demo_solve_is_the_same_with_and_without_the_checked_orbit(
        rate, k, n, kind, tol, max_iter):
    _, op, metric, f0, cert = _demo_parts(rate, k, n, kind)
    assume(cert.valid)
    cfg = SolverConfig(max_iter=max_iter, tol=tol)
    _assert_the_orbit_was_used(cert, _with_and_without_orbit(op, metric, f0, cert, cfg),
                               max_iter)


@pytest.mark.parametrize("map_spec, metric, a", [
    (linear_quarter(), scalar_backward_one(), scalar(1 / math.sqrt(2))),
    (piecewise_quarter(), mat2_split(), diag2(1 / math.sqrt(3), 1 / math.sqrt(3))),
], ids=["linear-quarter", "piecewise-quarter"])
@pytest.mark.parametrize("tol, max_iter", [(1e-10, 1000), (1e-300, 200), (1e-10, 4)],
                         ids=["converges", "exhausts", "short"])
def test_gallery_orbital_certificates_give_the_same_solve(map_spec, metric, a, tol,
                                                          max_iter):
    cert = verify_orbital_type(map_spec, metric, a, seed=1.0, orbit_len=30)
    cfg = SolverConfig(max_iter=max_iter, tol=tol)
    runs = _with_and_without_orbit(map_spec, metric, 1.0, cert, cfg)
    _assert_the_orbit_was_used(cert, runs, max_iter)
    assert type(runs[0][1].fixed_point) is float
    # from another seed the solve maps every iterate itself
    (json_with, report, applied), (json_without, _, _) = _with_and_without_orbit(
        map_spec, metric, 2.0, cert, cfg)
    assert json_with == json_without and applied == report.iterations + 1


def test_a_seed_of_the_other_sign_of_zero_is_not_the_checked_seed():
    # 0.0 and -0.0 are equal, but their orbits under x / 4 differ in sign
    cert = verify_orbital_type(linear_quarter(), scalar_forward_one(), scalar(0.5),
                               seed=0.0, orbit_len=30)
    cfg = SolverConfig(tol=1e-10)
    (json_with, report, applied), (json_without, _, _) = _with_and_without_orbit(
        linear_quarter(), scalar_forward_one(), -0.0, cert, cfg)
    assert json_with == json_without and applied == report.iterations + 1
    assert math.copysign(1.0, report.fixed_point) == -1.0


def test_a_solve_past_the_checked_orbit_maps_the_rest():
    # at rate 0.95 and k = 2 the demo's orbit contracts by about 0.44 a step,
    # so a solve to 1e-15 outruns the certificate's 32 steps
    _, op, metric, f0, cert = _demo_parts(0.95, 2.0, 64)
    cfg = SolverConfig(tol=1e-15, max_iter=200)
    runs = _with_and_without_orbit(op, metric, f0, cert, cfg)
    assert runs[0][1].converged and runs[0][1].iterations > len(cert.orbit.steps)
    _assert_the_orbit_was_used(cert, runs, cfg.max_iter)


def test_a_max_iter_inside_the_checked_orbit_stops_there():
    _, op, metric, f0, cert = _demo_parts(0.5, 2.0, 64)
    cfg = SolverConfig(tol=1e-12, max_iter=5)
    runs = _with_and_without_orbit(op, metric, f0, cert, cfg)
    assert runs[0][1].iterations == 5 and runs[0][1].max_iter_exceeded
    _assert_the_orbit_was_used(cert, runs, cfg.max_iter)


def test_a_certificate_of_another_problem_is_not_taken_as_known_iterates():
    # same grid and seed f0, another alpha: row 0 matches, row 1 does not
    prob, _, metric, f0, cert = _demo_parts(0.5, 2.0, 64)
    other = integral.make_problem(prob.alpha * 1.25, 2.0, n=64)
    assert np.array_equal(other.f0_array, f0)
    cfg = SolverConfig(tol=1e-8, max_iter=200)
    (json_with, report, applied), (json_without, _, _) = _with_and_without_orbit(
        integral.integral_operator(other), integral.problem_metric(other), other.f0_array,
        cert, cfg)
    assert json_with == json_without
    assert applied == report.iterations + 2  # T(f0) for the check, then the solve's own
    # nor is the orbit of this problem in another metric, though the seed matches
    (json_with, report, applied), (json_without, _, _) = _with_and_without_orbit(
        integral.integral_operator(prob), reversed_metric(metric), f0, cert, cfg)
    assert json_with == json_without and applied == report.iterations + 1


def test_a_checked_orbit_of_another_map_cannot_certify_a_point_it_does_not_fix():
    # the same first step from 1.0, then another orbit: the solve walks the
    # certificate's rows, but the residual maps the last one afresh
    cert = verify_orbital_type(linear_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0, orbit_len=30)
    lifted = MapSpec("lifted", lambda x: x / 4.0 if x >= 0.2 else x / 4.0 + 0.1)
    cfg = SolverConfig(tol=1e-10)
    report = picard_solve(lifted, scalar_backward_one(), 1.0, cert, cfg)
    assert report.converged and report.fixed_point < 1e-9
    assert report.residual_forward == 1.0 and not report.fixed_point_certified
    honest = picard_solve(lifted, scalar_backward_one(), 1.0, replace(cert, orbit=None), cfg)
    assert honest.fixed_point_certified
    assert honest.fixed_point == pytest.approx(0.4 / 3.0)


def test_the_checked_orbit_stays_out_of_the_certificate_json():
    cert = verify_orbital_type(linear_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0, orbit_len=30)
    assert cert.orbit is not None and len(cert.orbit.points) == 33
    assert "orbit" not in cert.to_json_dict()
    assert cert == replace(cert, orbit=None) and "orbit=" not in repr(cert)
    assert certificate_from_json(json.loads(json.dumps(cert.to_json_dict()))).orbit is None
