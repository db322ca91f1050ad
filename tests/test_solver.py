from __future__ import annotations

import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasifix import solver
from quasifix.algebra import (
    NormKind,
    NotPositive,
    adjoint,
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
from reference_metrics import reference_distance_norm, reference_eval_metric
from reference_algebra import reference_leq, reference_norm, sqrt_positive

GRID = np.linspace(-3.0, 7.0, 21)


@pytest.fixture(scope="module")
def sandwich_cert() -> ContractionCertificate:
    return verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                  diag2(0.5, 0.5), points=GRID, tol=1e-12)


# --- picard iteration -------------------------------------------------------------

def test_quarter_map_reaches_zero_quickly(sandwich_cert):
    cfg = SolverConfig(tol=1e-10)
    report = picard_solve(sandwich_cert, 1.0, cfg)
    assert report.converged
    assert report.iterations <= 20
    assert abs(report.fixed_point) <= 1e-9
    assert report.residual_forward <= 1e-10
    assert report.residual_backward <= 1e-10
    assert report.fixed_point_certified


def test_fixed_seed_returns_in_one_iteration(sandwich_cert):
    report = picard_solve(sandwich_cert, 0.0, SolverConfig(tol=1e-10))
    assert report.iterations == 1
    assert report.residual_forward == 0.0
    assert report.residual_backward == 0.0


def test_orbital_run_is_certified_on_its_forward_residual_alone():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0, orbit_len=30)
    report = picard_solve(cert, 1.0, SolverConfig(tol=1e-10))
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
        picard_solve(bad, 1.0, SolverConfig())


def test_max_iter_flags_but_returns_the_report(sandwich_cert):
    cfg = SolverConfig(max_iter=3, tol=1e-300)
    report = picard_solve(sandwich_cert, 1.0, cfg)
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
        report = picard_solve(sandwich_cert, seed, cfg)
        assert report.bound_envelope_ok
        assert report.predicted_bounds_rev is not None
        for obs, bound in zip(report.observed_tail, report.predicted_bounds):
            assert obs <= bound + 1e-10
        for obs, bound in zip(report.observed_tail_rev,
                              report.predicted_bounds_rev):
            assert obs <= bound + 1e-10


def test_one_step_decay_under_the_sandwich(sandwich_cert):
    report = picard_solve(sandwich_cert, 7.0, SolverConfig(tol=1e-10))
    rate = 0.25  # operator norm of the coefficient, squared
    steps = report.trace.bwd_step_norms
    for prev, cur in zip(steps, steps[1:]):
        assert cur <= rate * prev + 1e-10


def test_one_sided_rate_matches_the_resolvent_coefficient():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=30)
    cfg = SolverConfig(max_iter=30, tol=1e-300)
    report = picard_solve(cert, 1.0, cfg)
    assert report.to_json_dict()["rate"] == pytest.approx(0.5, abs=1e-12)
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
    report = picard_solve(cert, 2.0, SolverConfig())
    solved = report.to_json_dict()
    assert solved["rate"] == cert.h_norm
    assert solved["rate"] == pytest.approx(0.25, abs=1e-12)
    assert solved["bound_mode"] == "one-sided"
    assert report.predicted_bounds_rev is None
    assert report.bound_envelope_ok


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_config_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=tol)


# --- uniqueness --------------------------------------------------------------------

def test_uniqueness_probe_spread(sandwich_cert):
    spread = uniqueness_probe(sandwich_cert, [-3.0, 0.5, 7.0],
                              SolverConfig(tol=1e-10))
    assert spread <= 2e-10


def test_uniqueness_probe_single_seed(sandwich_cert):
    assert uniqueness_probe(sandwich_cert, [1.0], SolverConfig(tol=1e-10)) == 0.0


def test_uniqueness_probe_refuses_orbital_certificates():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0)
    with pytest.raises(CertificateInvalid):
        uniqueness_probe(cert, [1.0, 2.0])


# --- determinism and export ----------------------------------------------------------

def test_reports_are_deterministic(sandwich_cert):
    cfg = SolverConfig(tol=1e-10)
    first = picard_solve(sandwich_cert, 0.5, cfg)
    second = picard_solve(sandwich_cert, 0.5, cfg)
    assert json.dumps(first.to_json_dict(), sort_keys=True) == \
        json.dumps(second.to_json_dict(), sort_keys=True)


def test_trace_csv_columns(sandwich_cert):
    report = picard_solve(sandwich_cert, 1.0, SolverConfig(tol=1e-10))
    header, first, *rest = report.trace.rows(report.predicted_bounds)
    assert header == ["n", "x_n", "fwd_step_norm", "bwd_step_norm", "bound_p"]
    assert first == [0, 1.0, "", "", report.predicted_bounds[0]]
    assert len(rest) == len(report.trace.points) - 1
    assert all(len(row) == len(header) for row in rest)
    assert [row[2] for row in rest] == list(report.trace.fwd_step_norms)


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


def _certificate(regime, map_spec, metric, c=0.5):
    """A certificate of ``map_spec`` in ``metric`` of rate c^2 whose one
    recorded sample nothing checked: the solver trusts it (a certificate of
    no sample it refuses)."""
    a = codomain_scalar(metric, c)
    return ContractionCertificate(regime, map_spec, metric, a, 1, ())


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
    report = picard_solve(_certificate(regime, _counted(map_spec, applied), metric),
                          seed, SolverConfig(tol=1e-10))
    assert report.converged and report.iterations > 2
    # one paired evaluation for the step of every iteration and one for the
    # residual, and no one-pair call; a forward-only walk evaluates its
    # reverse steps after the walk, all at once.  The tails and d1 are not
    # evaluated again, and the LSC gate reads the steps
    x_n, after = report.fixed_point, map_spec.apply(report.fixed_point)
    forward_only = not regime.is_global
    assert one_pair_calls == []
    assert len(paired) == report.iterations + 1 + forward_only
    _, stack, xs, ys = paired[-1]
    if forward_only:
        walked = [*report.trace.points, after]
        assert np.array_equal(stack[xs], walked[1:])
        assert np.array_equal(stack[ys], walked[:-1])
    else:
        assert np.array_equal(stack[xs], [x_n, after])
        assert np.array_equal(stack[ys], [after, x_n])
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
    report = picard_solve(_certificate(Regime.FORWARD_GLOBAL, map_spec, metric), seed,
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


@pytest.mark.parametrize("metric",
                         SOLVE_METRICS + [reversed_metric(m) for m in SOLVE_METRICS],
                         ids=lambda m: m.name + ("-reversed" if m.swap_args else ""))
@settings(max_examples=examples(25), deadline=None)
@given(kind=st.sampled_from(NormKind), slope=st.floats(-2.0, 2.0),
       shift=st.floats(-1.0, 1.0), seed=SOLVE_SEED, max_iter=st.integers(1, 6))
def test_the_residual_pair_is_the_one_pair_evaluation(metric, kind, slope, shift, seed,
                                                      max_iter):
    # the residual pair is one paired evaluation with one batched norm, and
    # its values are those of eval_metric and norm, one pair at a time, in
    # both orders; slopes above 1 leave the last point unconverged
    metric = replace(metric, norm=kind)
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        seed = seed * FN_GRID
    report = picard_solve(_certificate(Regime.FORWARD_GLOBAL, map_spec, metric), seed,
                          SolverConfig(max_iter=max_iter, tol=1e-10))
    x_n, after = report.fixed_point, map_spec.apply(report.fixed_point)
    for got, (x, y) in [(report.residual_forward, (x_n, after)),
                        (report.residual_backward, (after, x_n))]:
        assert got.hex() == norm(eval_metric(metric, x, y), kind).hex()


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
    report = picard_solve(_certificate(Regime.ORBITAL, map_spec, metric), seed,
                          SolverConfig(max_iter=max_iter, tol=tol))
    assert report.lsc_check is orbital_lsc_check(
        list(report.trace.points), report.fixed_point, map_spec, metric, tol)


def test_solver_lsc_check_fails_after_a_jump():
    # 1, 0.7, 0.4, 0.1, -0.2: G falls to 0.3 and jumps to 1 at the last point
    report = picard_solve(_certificate(Regime.ORBITAL, DROP, scalar_backward_one()), 1.0,
                          SolverConfig(max_iter=4))
    assert report.trace.points[-1] == pytest.approx(-0.2)
    assert report.lsc_check is False
    assert not report.fixed_point_certified


def test_a_global_verdict_reads_the_backward_residual():
    # x -> x/4 converges at x_N = 4^-18, whose image jumps up by 2e-10: under
    # mat2-split-scaled(0.25) the forward residual is a quarter of it and the
    # backward one all of it, so the lsc check holds but a global certificate
    # cannot certify x_N
    jump = MapSpec("jump-up", lambda x: x / 4.0 if x > 3e-11 else x + 2e-10)
    metric = mat2_split_scaled(0.25)
    cfg = SolverConfig(tol=1e-10)
    report = picard_solve(_certificate(Regime.FORWARD_GLOBAL, jump, metric), 1.0, cfg)
    assert report.converged and report.iterations == 18 and report.lsc_check
    assert report.residual_forward <= cfg.tol < report.residual_backward
    assert not report.fixed_point_certified


# x -> x/4 down to 4^-18 < 3e-11, whose image jumps up: under
# scalar-backward-one the forward residual is then 1
JUMP_UP = MapSpec("jump-up", lambda x: x / 4.0 if x > 3e-11 else x + 2e-10)


@pytest.mark.parametrize("regime, map_spec, metric, max_iter, fails", [
    (Regime.ORBITAL, linear_quarter(), scalar_backward_one(), 17, "converged"),
    (Regime.ORBITAL, JUMP_UP, scalar_backward_one(), 40, "forward"),
    (Regime.FORWARD_GLOBAL, JUMP_UP, mat2_split_scaled(0.25), 40, "backward"),
    (Regime.ORBITAL, linear_quarter(), scalar_backward_one(), 40, None),
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25), 40, None),
], ids=["unconverged", "forward-residual", "backward-residual", "orbital", "global"])
def test_each_conjunct_of_the_verdict_can_void_it(regime, map_spec, metric, max_iter,
                                                   fails):
    # the verdict is: converged, forward residual <= tol and, under a global
    # regime, backward residual <= tol.  Each voiding case fails exactly one
    # conjunct; the orbital case holds with a backward residual of 1, and
    # the global one with both
    cfg = SolverConfig(tol=1e-10, max_iter=max_iter)
    report = picard_solve(_certificate(regime, map_spec, metric), 1.0, cfg)
    held = {"converged": report.converged,
            "forward": report.residual_forward <= cfg.tol,
            "backward": regime is Regime.ORBITAL or report.residual_backward <= cfg.tol}
    assert [name for name, ok in held.items() if not ok] == ([fails] if fails else [])
    assert report.fixed_point_certified is (fails is None)
    # a forward residual within tol passes the lsc check, so it gates nothing
    assert report.lsc_check or not held["forward"]
    if regime is Regime.ORBITAL and fails is None:
        assert report.residual_backward == 1.0


def test_a_global_envelope_reads_the_reverse_order():
    # x -> -x/4 alternates the steps' sign, so under mat2-split-scaled(0.25)
    # the reverse tail from every x_p below x_N is a full distance against a
    # budget a quarter of the forward one; the forward tail keeps its budget
    flip = MapSpec("flip-quarter", lambda x: -x / 4.0)
    metric = mat2_split_scaled(0.25)
    cfg = SolverConfig(tol=1e-10)
    report = picard_solve(_certificate(Regime.FORWARD_GLOBAL, flip, metric), 7.0, cfg)
    assert report.converged
    assert all(o <= b + cfg.tol for o, b in zip(report.observed_tail, report.predicted_bounds))
    assert not report.bound_envelope_ok


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
    cert = _certificate(Regime.FORWARD_GLOBAL, linear_quarter(), metric)
    cfg = SolverConfig(tol=tol)
    points = [picard_solve(cert, s, cfg).fixed_point for s in seeds]
    spread = uniqueness_probe(cert, seeds, cfg)
    assert spread.hex() == _reference_spread(metric, points).hex()


# --- the walked-step check ------------------------------------------------------

def _reference_failing_samples(regime, metric, a, walked, tol):
    """The walked samples (x_i, x_(i+1)), i < len(walked) - 2, on which the
    regime's inequality fails, one pair at a time by the reference formulas:
    lhs d(x_(i+1), x_(i+2)) against the sandwich (or, for two-step, the
    product) of the base d(x_i, x_(i+1)), d(x_(i+1), x_i) backward, or
    d(x_i, x_(i+2)) for two-step."""
    d = reference_eval_metric
    failing = 0
    for i in range(len(walked) - 2):
        lhs = d(metric, walked[i + 1], walked[i + 2])
        if regime is Regime.BACKWARD_GLOBAL:
            base = d(metric, walked[i + 1], walked[i])
        else:
            base = d(metric, walked[i], walked[i + (2 if regime is Regime.TWO_STEP else 1)])
        rhs = mul(a, base) if regime is Regime.TWO_STEP else mul(mul(adjoint(a), base), a)
        failing += not reference_leq(lhs, rhs, metric.order,
                                     tol * (1.0 + reference_norm(rhs, NormKind.OPERATOR)))
    return failing


@pytest.mark.parametrize("metric", STEP_METRICS + [mult_op(FN_GRID)], ids=lambda m: m.name)
@settings(max_examples=examples(40), deadline=None)
@given(regime=st.sampled_from(Regime), c=st.floats(0.0, 0.49),
       slope=st.floats(-1.0, 1.0), shift=st.floats(-1.0, 1.0),
       seed=st.floats(-8.0, 8.0), tol=st.sampled_from([1e-10, 1e-6, 0.1]),
       max_iter=st.sampled_from([1, 2, 5, 200]))
def test_the_walked_check_is_the_one_pair_loop(metric, regime, c, slope, shift, seed,
                                               tol, max_iter):
    # x -> slope x + shift moves by |slope| a step, against a rate of c^2
    # (c/(1 - c) for two-step): some solves fail samples, some none
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        seed = seed * FN_GRID
    cert = _certificate(regime, map_spec, metric, c)
    report = picard_solve(cert, seed, SolverConfig(tol=tol, max_iter=max_iter))
    walked = [*report.trace.points, map_spec.apply(report.fixed_point)]
    assert report.failing_samples == _reference_failing_samples(
        regime, metric, cert.a, walked, tol)
    assert not (report.fixed_point_certified and report.failing_samples)
    assert "failing_samples" not in report.to_json_dict()


@pytest.mark.parametrize("metric", STEP_METRICS + [mult_op(FN_GRID)], ids=lambda m: m.name)
@settings(max_examples=examples(40), deadline=None)
@given(regime=st.sampled_from([Regime.ORBITAL, Regime.TWO_STEP]),
       c=st.floats(0.0, 0.49), slope=st.floats(-1.0, 1.0), shift=st.floats(-1.0, 1.0),
       seed=st.floats(-8.0, 8.0), orbit_len=st.integers(2, 12),
       tol=st.sampled_from([1e-10, 1e-6, 0.1]), short=st.integers(0, 12))
def test_a_solve_inside_the_checked_orbit_fails_no_walked_sample(
        metric, regime, c, slope, shift, seed, orbit_len, tol, short):
    # the walked samples of a solve from the certificate's own seed that
    # stops within orbit_len + 1 steps are samples the certificate checked,
    # at the same tolerance, so none of them fails
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        seed = seed * FN_GRID
    cert = verify(regime, map_spec, metric, codomain_scalar(metric, c), seed=seed,
                  orbit_len=orbit_len, tol=tol)
    assume(cert.valid and cert.rate < 1.0)
    cfg = SolverConfig(tol=tol, max_iter=max(1, orbit_len + 1 - short))
    assert picard_solve(cert, seed, cfg).failing_samples == 0


def test_a_solve_maps_each_iterate_once_from_either_zero():
    # 0.0 and -0.0 are equal, but their orbits under x / 4 differ in sign;
    # each walked iterate is mapped once, and the fixed point once more
    quarter, metric = linear_quarter(), scalar_backward_one()
    cert = verify_orbital_type(quarter, metric, scalar(1 / math.sqrt(2)), seed=1.0,
                               orbit_len=30)
    for seed in (0.0, -0.0, 1.0, 1):
        applied = []
        report = picard_solve(replace(cert, map_spec=_counted(quarter, applied)), seed,
                              SolverConfig(tol=1e-10))
        assert len(applied) == report.iterations + 1 and report.fixed_point_certified
        assert math.copysign(1.0, report.fixed_point) == math.copysign(1.0, seed)
        # the trace starts at the caller's seed object; the fixed point is
        # the map's float image
        assert type(report.trace.points[0]) is type(seed)
        assert type(report.fixed_point) is float


@pytest.mark.parametrize("regime, map_spec, metric, c, seed, failing", [
    # a = 0.01 I on x / 4: every step whose tail is not within tol fails
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split(), 0.01, 3.0, 15),
    # a = 1/3 from seed -3: steps of norm 1 under scalar-backward-one
    (Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), 1 / 3, -3.0, 538),
    # a = 0 certifies no map that moves a point, whatever the certify tol
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split(), 0.0, 3.0, 15),
], ids=["forward-forged", "two-step-negative-seed", "forward-zero"])
def test_a_failing_walked_sample_voids_the_certification(regime, map_spec, metric, c,
                                                          seed, failing):
    report = picard_solve(_certificate(regime, map_spec, metric, c), seed,
                          SolverConfig(tol=1e-9))
    assert report.converged and report.residual_forward <= 1e-9
    assert report.failing_samples == failing
    assert not report.fixed_point_certified
