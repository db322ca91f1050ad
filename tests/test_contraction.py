from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasifix
from quasifix import algebra, contraction, metrics, solver
from quasifix.algebra import (
    NormKind,
    NotPositive,
    NotSelfAdjoint,
    OrderKind,
    RealizationMismatch,
    adjoint,
    allclose,
    diag2,
    mat2,
    mul,
    norm,
    sampled,
    scalar,
    scale,
)
from quasifix.contraction import (
    CertificateInvalid,
    CoefficientNormTooLarge,
    NotInCommutant,
    Regime,
    certificate_from_json,
    search_scalar_coefficient,
    verify,
    verify_orbital_type,
)
from quasifix.maps import MapSpec, from_table, linear_quarter, piecewise_quarter
from quasifix.metrics import (
    DomainMismatch,
    MetricSpec,
    codomain_scalar,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    scalar_backward_one,
    scalar_forward_one,
)

from budget import examples
from reference_algebra import reference_leq, reference_norm
from reference_metrics import reference_eval_metric
from reference_search import plain_search

GRID = np.linspace(-2.0, 2.0, 17)
NONNEG = [0.0, 0.5, 1.0, 2.0]


# --- global sandwich -------------------------------------------------------------

def test_quarter_map_sandwich_holds_with_half_identity():
    cert = verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                  diag2(0.5, 0.5), points=GRID, tol=1e-12)
    assert cert.valid
    assert cert.regime is Regime.FORWARD_GLOBAL
    assert cert.samples_checked == len(GRID) ** 2
    assert cert.a_norm == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_identity_map_diagonal_pairs_hold_trivially():
    # one point: its one sample is the pair (x, x)
    identity = MapSpec("identity", lambda x: x)
    for x in GRID:
        cert = verify(Regime.FORWARD_GLOBAL, identity, mat2_split(), diag2(0.6, 0.6),
                      points=[x])
        assert cert.valid and cert.samples_checked == 1


def test_backward_one_metric_defeats_small_coefficients():
    cert = verify(Regime.FORWARD_GLOBAL, piecewise_quarter(), scalar_backward_one(),
                  scalar(0.9), points=NONNEG)
    assert not cert.valid
    # the violations are exactly the x < y pairs, where 1 <= a^2 is forced
    assert all(v["x"] < v["y"] for v in cert.violations)


def test_order_tolerance_scales_with_the_rhs_norm():
    # T maps 1000 to 1000 k and every other point x to x / 4.  On the pairs
    # of 1000 and 0, lhs = 1000 k against rhs = 0.25 * 1000 = 250 in one
    # diagonal entry, with tolerance 1e-9 * (1 + 250); on those of 1000 and
    # 4, 1000 k - 1 against 249: an excess of 1e-7 is inside either
    # tolerance, 1e-6 is not.  The pairs of 4 and 0 hold exactly
    def scaled(k):
        return MapSpec("scaled", lambda x: k * x if x == 1000.0 else x / 4)

    points = [1000.0, 4.0, 0.0]
    assert verify(Regime.FORWARD_GLOBAL, scaled(0.25 + 1e-10), mat2_split(),
                  diag2(0.5, 0.5), points=points).valid
    assert not verify(Regime.FORWARD_GLOBAL, scaled(0.25 + 1e-9), mat2_split(),
                      diag2(0.5, 0.5), points=points).valid
    # without the exact pairs every moving sample passes only within the
    # tolerance, and the check is refused
    with pytest.raises(CertificateInvalid, match="2 moving samples"):
        verify(Regime.FORWARD_GLOBAL, scaled(0.25 + 1e-10), mat2_split(),
               diag2(0.5, 0.5), points=[1000.0, 0.0])


def test_coefficient_norm_gate():
    with pytest.raises(CoefficientNormTooLarge):
        verify(Regime.FORWARD_GLOBAL, linear_quarter(), scalar_backward_one(),
               scalar(1.0), points=NONNEG)


# --- orbital ----------------------------------------------------------------------

def test_orbital_certificate_at_inverse_sqrt_two():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(1 / math.sqrt(2)), seed=1.0, orbit_len=30)
    assert cert.valid
    assert cert.seed_point == 1.0
    # the step inequality is 3y/16 <= (1/2)(3y/4) along the orbit
    y = 1.0
    assert 3 * y / 16 <= 0.5 * (3 * y / 4)


def test_orbital_fixed_point_seed_accepts_any_admissible_coefficient():
    cert = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                               scalar(0.01), seed=0.0, orbit_len=10)
    assert cert.valid


def test_orbital_matrix_variant_certifies_at_inverse_sqrt_three():
    a = diag2(1 / math.sqrt(3), 1 / math.sqrt(3))
    cert = verify_orbital_type(piecewise_quarter(), mat2_split(), a,
                               seed=1.0, orbit_len=30)
    assert cert.valid


# --- two-step ----------------------------------------------------------------------

def test_two_step_certificate_carries_the_resolvent_rate():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=30)
    assert cert.valid
    assert cert.h_norm == pytest.approx(0.5, abs=1e-12)
    # the orbit inequality is 3y/16 <= (1/3)(15y/16)
    y = 1.0
    assert 3 * y / 16 <= (1 / 3) * (15 * y / 16)


def test_two_step_zero_coefficient_needs_a_fixed_point_seed():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(0.0), seed=0.0, orbit_len=10)
    assert cert.valid
    moving = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                    scalar(0.0), seed=1.0, orbit_len=10)
    assert not moving.valid


def test_two_step_gates():
    with pytest.raises(CoefficientNormTooLarge):
        verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), scalar(0.6),
               seed=1.0)
    with pytest.raises(NotPositive):
        verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), scalar(-0.1),
               seed=1.0)
    with pytest.raises(NotInCommutant):
        verify(Regime.TWO_STEP, linear_quarter(), mat2_split(),
               mat2(0.3, 0.1, 0.1, 0.3), seed=1.0)
    # the norm gate is 1/2 itself, whatever the order tolerance
    for tol in (1e-9, 1.0, 1e300):
        with pytest.raises(CoefficientNormTooLarge):
            verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                   scalar(0.5000000000000001), seed=1.0, tol=tol)
    assert verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), scalar(0.5),
                  seed=1.0).h_norm == 1.0


@pytest.mark.parametrize("tol", [1e-9, 1.0, 1e300])
def test_two_step_positivity_and_commutant_gates_give_no_tol_slack(tol):
    # the order tolerance is no slack for positivity or the commutant
    for a in (scalar(-1e-12), diag2(-0.4, -0.4)):
        metric = mat2_split() if a.realization == "mat2" else scalar_backward_one()
        with pytest.raises(NotPositive):
            verify(Regime.TWO_STEP, linear_quarter(), metric, a, seed=2.0, tol=tol)
    with pytest.raises(NotInCommutant):
        verify(Regime.TWO_STEP, linear_quarter(), mat2_split(),
               mat2(0.3, 1e-12, 1e-12, 0.3), seed=2.0, tol=tol)


# --- scalar search -----------------------------------------------------------------

def test_search_finds_the_equality_coefficient():
    cert = search_scalar_coefficient(linear_quarter(), mat2_split_scaled(0.25),
                                     Regime.FORWARD_GLOBAL, points=GRID,
                                     tol=1e-12)
    assert cert is not None
    assert float(cert.a.data[0, 0]) == pytest.approx(0.5, abs=1e-9)


def test_search_returns_none_for_the_backward_one_negative_case():
    for map_spec in (piecewise_quarter(), linear_quarter()):
        assert search_scalar_coefficient(map_spec, scalar_backward_one(),
                                         Regime.FORWARD_GLOBAL,
                                         points=NONNEG) is None


def test_search_on_a_fixed_point_orbit_returns_zero():
    identity = MapSpec("identity", lambda x: x)
    cert = search_scalar_coefficient(identity, scalar_backward_one(),
                                     Regime.ORBITAL, seed=2.0)
    assert cert is not None
    assert float(cert.a.data) == 0.0


def test_search_result_reverifies_and_is_monotone():
    cert = search_scalar_coefficient(linear_quarter(), mat2_split_scaled(0.25),
                                     Regime.FORWARD_GLOBAL, points=GRID,
                                     tol=1e-12)
    c = float(cert.a.data[0, 0])
    again = verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                   diag2(c, c), points=GRID, tol=1e-12)
    assert again.valid
    cap = (1.0 - 1e-6) / math.sqrt(2)
    for cc in np.linspace(c, cap, 5):
        step = verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                      diag2(cc, cc), points=GRID, tol=1e-12)
        assert step.valid


def test_global_certificate_implies_orbital_certificate():
    a = diag2(0.5, 0.5)
    spec = mat2_split_scaled(0.25)
    assert verify(Regime.FORWARD_GLOBAL, linear_quarter(), spec, a, points=GRID,
                  tol=1e-12).valid
    for seed in (-2.0, 0.3, 1.0):
        assert verify_orbital_type(linear_quarter(), spec, a, seed,
                                   orbit_len=20, tol=1e-12).valid


def test_search_evaluates_each_sample_once(monkeypatch, one_pair_calls):
    spec = mat2_split_scaled(0.25)
    cert = search_scalar_coefficient(linear_quarter(), spec,
                                     Regime.FORWARD_GLOBAL, points=GRID,
                                     tol=1e-12)
    assert cert is not None and cert.samples_checked == len(GRID) ** 2
    # the tables come from the batched kernel: one table of base on the
    # points and one of lhs on their images, each over every pair, not one
    # per attempt
    assert one_pair_calls == []
    tables = []
    table = contraction._component_table
    monkeypatch.setattr(contraction, "_component_table",
                        lambda spec, xs: tables.append(len(xs)) or table(spec, xs))
    again = search_scalar_coefficient(linear_quarter(), spec, Regime.FORWARD_GLOBAL,
                                      points=GRID, tol=1e-12)
    assert again.a.data.tobytes() == cert.a.data.tobytes()
    assert tables == [len(GRID), len(GRID)]


@pytest.mark.parametrize("map_spec, metric", [
    (piecewise_quarter(), periodic_fn()),
    (linear_quarter(), scalar_backward_one()),
    (linear_quarter(), mat2_split()),
], ids=["periodic-fn", "scalar-backward-one", "mat2-split"])
def test_two_step_search_builds_the_resolvent_once(monkeypatch, map_spec, metric):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(algebra, "_inverse_one_minus_unchecked",
                        counted(algebra._inverse_one_minus_unchecked))
    cert = search_scalar_coefficient(map_spec, metric, Regime.TWO_STEP,
                                     seed=1.0, orbit_len=30)
    assert cert is not None and cert.valid
    # no attempt builds h: the returned certificate derives it on first use,
    # through the ungated builder, since the gate has checked the
    # coefficient, and keeps it
    assert calls == []
    assert cert.rate == cert.h_norm and cert.to_json_dict()["h"] is not None
    assert calls == ["_inverse_one_minus_unchecked"]


@pytest.mark.parametrize("regime, map_spec, metric, samples", [
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25), {"points": GRID}),
    (Regime.ORBITAL, piecewise_quarter(), mat2_split(), {"seed": 1.0}),
    (Regime.TWO_STEP, piecewise_quarter(), periodic_fn(), {"seed": 1.0}),
    (Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), {"seed": 2.5}),
], ids=["forward", "orbital", "two-step-periodic", "two-step-scalar"])
def test_search_certificate_is_the_verify_certificate_at_its_coefficient(
        regime, map_spec, metric, samples):
    found = search_scalar_coefficient(map_spec, metric, regime, **samples)
    assert found is not None
    again = verify(regime, map_spec, metric, found.a, **samples)
    assert json.dumps(found.to_json_dict()) == json.dumps(again.to_json_dict())


@pytest.mark.parametrize("regime", [Regime.ORBITAL, Regime.TWO_STEP])
def test_orbit_regimes_need_at_least_two_steps(regime):
    with pytest.raises(ValueError, match="orbit_len"):
        verify(regime, linear_quarter(), scalar_backward_one(), scalar(0.4),
               seed=1.0, orbit_len=1)
    with pytest.raises(ValueError, match="orbit_len"):
        search_scalar_coefficient(linear_quarter(), scalar_backward_one(),
                                  regime, seed=1.0, orbit_len=1)
    assert verify(regime, linear_quarter(), scalar_backward_one(), scalar(0.4),
                  seed=1.0, orbit_len=2).samples_checked == 3


def test_points_outside_the_map_domain_still_raise():
    table = from_table({0.0: 0.0, 1.0: 0.25})
    with pytest.raises(DomainMismatch):
        verify(Regime.FORWARD_GLOBAL, table, mat2_split(), diag2(0.5, 0.5),
               points=[0.0, 1.0, 2.0])
    with pytest.raises(DomainMismatch):
        search_scalar_coefficient(table, mat2_split(), Regime.ORBITAL, seed=1.0)


def test_distances_must_live_in_the_coefficient_space():
    with pytest.raises(RealizationMismatch, match="cannot combine 'scalar' with 'mat2'"):
        verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split(), scalar(0.5),
               points=[0.0, 1.0])
    with pytest.raises(RealizationMismatch, match="different grids"):
        verify_orbital_type(linear_quarter(), periodic_fn(grid_size=8),
                            sampled(np.linspace(0.0, 1.0, 8), np.full(8, 0.5)),
                            seed=1.0)


@pytest.mark.parametrize("regime", [Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL])
def test_an_empty_point_set_certifies_nothing(regime):
    # with no sample, any coefficient would certify any map
    metric = mat2_split()
    for points in ([], np.empty(0)):
        with pytest.raises(ValueError, match="at least one sample point"):
            verify(regime, piecewise_quarter(), metric, diag2(0.0, 0.0), points=points)
        with pytest.raises(ValueError, match="at least one sample point"):
            search_scalar_coefficient(piecewise_quarter(), metric, regime, points=points)


# --- the guided search against plain bisection ---------------------------------------

def _counted_failures(monkeypatch) -> list:
    """Every exact order check of the core that the test makes."""
    calls = []
    exact = contraction._failures

    def counted(*args):
        calls.append(args[0])
        return exact(*args)

    monkeypatch.setattr(contraction, "_failures", counted)
    return calls


def _search_outcome(search, *args, **kwargs):
    """What a search returns, as bytes to compare: the coefficient's hex and
    the certificate JSON, None, or the type of what it raised."""
    try:
        cert = search(*args, **kwargs)
    except Exception as exc:  # both searches must raise the same
        return type(exc)
    if cert is None:
        return None
    return (float(cert.a.data.flat[0]).hex(),
            json.dumps(cert.to_json_dict(), sort_keys=True))


@st.composite
def _search_tables(draw):
    """A regime, a metric, a tolerance and (lhs, base) tables for it.

    lhs is mostly base times a rate, so that the threshold lies near
    u = rate (u = c^2, or c for two-step) and the bisection runs, with
    relative noise, components of order tol (where the check cancels),
    zeros, and scales up to 1e300; some tables have negative values, where
    no closed form applies.  2x2 values are diagonal, as every table of
    the kernel is.
    """
    regime = draw(st.sampled_from(list(Regime)))
    codomain = draw(st.sampled_from([algebra.MAT2, algebra.SAMPLED, algebra.SCALAR]))
    order = (draw(st.sampled_from(list(OrderKind))) if codomain == algebra.MAT2
             else OrderKind.POSITIVE_CONE)
    metric = MetricSpec("random-tables", codomain, order,
                        draw(st.sampled_from(list(NormKind))),
                        grid=(0.0, 0.5, 1.0) if codomain == algebra.SAMPLED else None)
    tol = draw(st.sampled_from([1e-9, 1e-12, 0.0, 1e-3, 0.5]))
    if regime in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL):
        n = draw(st.integers(1, 3)) ** 2  # the pairs of a grid
    else:
        n = draw(st.integers(1, 10))
    width = {algebra.MAT2: 2, algebra.SAMPLED: 3, algebra.SCALAR: 1}[codomain]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-150, 1.0, 1e9, 1e150, 1e300, None]))
    scale = scale or tol or 1e-9  # None: base of the order of tol
    base = rng.uniform(0.0, 4.0, (n, width)) * scale
    base[rng.random((n, width)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    rate = draw(st.floats(0.0, 1.2))
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
    lhs = base * rate * (1.0 + noise * rng.uniform(-1.0, 1.0, (n, width)))
    if draw(st.integers(0, 2)):  # components where the check compares l with tol
        near_tol = rng.random((n, width)) < 0.5
        tol_noise = draw(st.sampled_from([0.0, 1e-15, 1e-12]))
        lhs[near_tol] = tol * (1.0 + tol_noise * rng.uniform(-1.0, 1.0, near_tol.sum()))
    if draw(st.integers(0, 9)) == 0:
        lhs[0, 0] = -lhs[0, 0] - 1.0
    lhs, base = (metrics._payloads(codomain, t if width > 1 else t[:, 0])
                 for t in (lhs, base))
    return regime, metric, tol, (_stack(regime, n), lhs, base)


def _stack(regime, samples):
    """A point stack that ``_tables`` could return with ``samples`` samples:
    a grid of k points for k^2 samples, or an orbit of samples + 2 points."""
    if regime in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL):
        k = math.isqrt(samples)
        assert k * k == samples
        return np.arange(float(k))
    return np.arange(samples + 2.0)


def _named_tables(regime, order, top):
    """Diagonal 2x2 tables whose largest entry is ``top``, with lhs at 0.3
    times base, so that the threshold is u = 0.3; the last sample is 0, as
    d(x, x) is on a grid."""
    metric = MetricSpec("named-tables", algebra.MAT2, order, NormKind.OPERATOR)
    base = np.array([[1.0, 0.5], [0.25, 1.0], [1.0, 0.0], [0.0, 0.0]]) * top
    lhs, base = (metrics._payloads(algebra.MAT2, t) for t in (0.3 * base, base))
    return regime, metric, 1e-9, (_stack(regime, 4), lhs, base)


_NAMED_TOPS = {"2^500-ulp": math.nextafter(2.0 ** 500, 0.0), "2^500": 2.0 ** 500,
               "2^500+ulp": math.nextafter(2.0 ** 500, math.inf), "1e300": 1e300}
_NAMED_TABLES = {f"{regime.value}-{order.value}-{name}": _named_tables(regime, order, top)
                 for regime in (Regime.FORWARD_GLOBAL, Regime.TWO_STEP)
                 for order in OrderKind for name, top in _NAMED_TOPS.items()}


def _with_named_tables(test):
    for case in _NAMED_TABLES.values():
        test = example(case)(test)
    return test


@settings(max_examples=examples(300), deadline=None)
@given(_search_tables())
@_with_named_tables
def test_the_guided_search_is_plain_bisection_on_random_tables(case):
    regime, metric, tol, tables = case
    identity = MapSpec("identity", lambda x: x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "_tables", lambda *args: tables)
        outcomes = [_search_outcome(search, identity, metric, regime, seed=1.0,
                                    tol=tol)
                    for search in (search_scalar_coefficient, plain_search)]
    assert outcomes[0] == outcomes[1]


_CATALOG_SEARCHES = [
    (Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25), {"points": GRID}),
    (Regime.FORWARD_GLOBAL, linear_quarter(),
     replace(mat2_split(), order=OrderKind.POSITIVE_CONE), {"points": GRID}),
    (Regime.FORWARD_GLOBAL, linear_quarter(), periodic_fn(grid_size=16),
     {"points": GRID}),
    (Regime.ORBITAL, piecewise_quarter(), mat2_split(), {"seed": 1.0}),
    (Regime.ORBITAL, linear_quarter(), scalar_backward_one(), {"seed": 2.0}),
    (Regime.TWO_STEP, piecewise_quarter(), periodic_fn(), {"seed": 1.0}),
    (Regime.TWO_STEP, linear_quarter(), scalar_backward_one(), {"seed": 2.5}),
]
_CATALOG_IDS = ["forward-split-scaled", "forward-cone", "forward-periodic",
                "orbital-split", "orbital-scalar", "two-step-periodic",
                "two-step-scalar"]


@pytest.mark.parametrize("regime, map_spec, metric, samples", _CATALOG_SEARCHES,
                         ids=_CATALOG_IDS)
def test_a_catalog_search_makes_at_most_sixteen_exact_checks(
        monkeypatch, regime, map_spec, metric, samples):
    # plain bisection makes 43: both end points, 40 midpoints, the certificate
    calls = _counted_failures(monkeypatch)
    guided = _search_outcome(search_scalar_coefficient, map_spec, metric, regime,
                             **samples)
    assert guided is not None and 1 <= len(calls) <= 16
    assert guided == _search_outcome(plain_search, map_spec, metric, regime,
                                     **samples)


def _guided_and_plain(monkeypatch, case):
    """The guided and the plain search on the tables of ``case``, and the
    exact checks the guided one made."""
    regime, metric, tol, tables = case
    identity = MapSpec("identity", lambda x: x)
    monkeypatch.setattr(contraction, "_tables", lambda *args: tables)
    calls = _counted_failures(monkeypatch)
    guided = _search_outcome(search_scalar_coefficient, identity, metric, regime,
                             seed=1.0, tol=tol)
    checks = len(calls)
    plain = _search_outcome(plain_search, identity, metric, regime, seed=1.0,
                            tol=tol)
    return guided, plain, checks


def test_a_table_without_a_closed_form_checks_every_midpoint(monkeypatch):
    # a negative lhs value leaves the band unbounded; sample 0 holds at every
    # c, and sample 1 needs c^2 >= 1/4
    metric = MetricSpec("hand-built", algebra.SCALAR, OrderKind.POSITIVE_CONE,
                        NormKind.OPERATOR)
    tables = (_stack(Regime.ORBITAL, 2), np.array([-1.0, 0.25]), np.array([1.0, 1.0]))
    guided, plain, checks = _guided_and_plain(
        monkeypatch, (Regime.ORBITAL, metric, 1e-9, tables))
    assert checks == 2 + contraction.BISECTION_STEPS + 1
    assert guided is not None and guided == plain


@pytest.mark.parametrize("case", _NAMED_TABLES.values(), ids=_NAMED_TABLES.keys())
def test_tables_at_any_scale_take_the_closed_form(monkeypatch, case):
    # the closed form holds for 2x2 tables at every scale, as for the others
    guided, plain, checks = _guided_and_plain(monkeypatch, case)
    assert guided is not None and 1 <= checks <= 16
    assert guided == plain


@pytest.mark.parametrize("regime, metric, samples, c", [
    (Regime.FORWARD_GLOBAL, mat2_split(), {"points": [8e307, -8e307, 0.0]}, 0.5),
    (Regime.ORBITAL, periodic_fn(), {"seed": 1e308}, 0.5),
    (Regime.TWO_STEP, periodic_fn(), {"seed": 1e308}, 0.2),
], ids=["forward-split", "orbital-periodic", "two-step-periodic"])
def test_a_search_near_the_float_limit_warns_nothing(regime, metric, samples, c):
    # the threshold band's sums overflow to inf, so the band is (-inf, inf)
    # and every midpoint takes the exact check, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        guided = _search_outcome(search_scalar_coefficient, linear_quarter(), metric,
                                 regime, **samples)
    assert guided is not None and float.fromhex(guided[0]) == pytest.approx(c, abs=1e-8)
    assert guided == _search_outcome(plain_search, linear_quarter(), metric, regime,
                                     **samples)


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_scalar_coefficient(linear_quarter(), mat2_split(),
                                  Regime.FORWARD_GLOBAL)
    with pytest.raises(ValueError):
        search_scalar_coefficient(linear_quarter(), mat2_split(),
                                  Regime.ORBITAL)


# --- serialization ------------------------------------------------------------------

def test_certificate_json_roundtrip():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=12)
    payload = json.loads(json.dumps(cert.to_json_dict()))
    assert payload["map"] == "linear-quarter"
    assert payload["metric"] == "scalar-backward-one"
    back = certificate_from_json(payload, cert.map_spec, cert.metric)
    assert back.regime is Regime.TWO_STEP
    assert back.valid
    assert back.map_spec is cert.map_spec and back.metric is cert.metric
    assert back.h_norm == pytest.approx(cert.h_norm, abs=0.0)
    assert allclose(back.a, cert.a, tol=0.0)
    assert back.to_json_dict() == payload


def test_a_certificate_derives_what_its_coefficient_determines():
    # the file's a_norm, h and h_norm are not read: forged or missing, they
    # come back as the coefficient gives them
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=12)
    payload = json.loads(json.dumps(cert.to_json_dict()))
    payload.update(a_norm=0.01, h_norm=0.01, h={"realization": "scalar", "value": 0.0})
    back = certificate_from_json(payload, cert.map_spec, cert.metric)
    assert back.to_json_dict() == cert.to_json_dict()
    assert back.rate == cert.rate == cert.h_norm == 0.4999999999999999
    for key in ("a_norm", "h", "h_norm"):
        del payload[key]
    assert certificate_from_json(payload, cert.map_spec, cert.metric).rate == cert.rate
    # a sandwich regime's rate is ||a||^2 in the operator norm, whatever the
    # certificate's norm kind
    orbital = verify(Regime.ORBITAL, linear_quarter(), mat2_split(), diag2(0.5, 0.25),
                     seed=1.0, orbit_len=12)
    assert orbital.h is None and orbital.h_norm is None
    assert orbital.rate == 0.25 and orbital.a_norm == norm(orbital.a, orbital.norm_kind)


@pytest.mark.parametrize("field", ["map", "metric"])
def test_a_certificate_file_of_another_map_or_metric_is_refused(field):
    cert = verify(Regime.ORBITAL, linear_quarter(), scalar_backward_one(),
                  scalar(0.5), seed=1.0, orbit_len=12)
    payload = json.loads(json.dumps(cert.to_json_dict()))
    other = {"map": (piecewise_quarter(), cert.metric),
             "metric": (cert.map_spec, scalar_forward_one())}[field]
    with pytest.raises(CertificateInvalid, match=f"for {field} '"):
        certificate_from_json(payload, *other)
    del payload[field]
    with pytest.raises(CertificateInvalid, match=f"for {field} None"):
        certificate_from_json(payload, cert.map_spec, cert.metric)
    assert solver.CertificateInvalid is quasifix.CertificateInvalid is CertificateInvalid


# --- batched core against the sample-by-sample loop ----------------------------

def reference_violations(regime, map_spec, metric, a, *, points=None,
                         seed=None, orbit_len=30, tol=1e-9):
    """The per-sample loop the batched core replaced: each distance from the
    one-pair reference formulas and one reference ``leq`` per sample, in
    sample order -- every ordered pair (x, y) of the points, row by row, on
    a grid.  Off-diagonal entries of a sandwich of a symmetric base that
    rounding split apart get their mean, as in the core."""
    d = reference_eval_metric
    if regime in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL):
        backward = regime is Regime.BACKWARD_GLOBAL
        samples = [(x, y, d(metric, map_spec.apply(x), map_spec.apply(y)),
                    d(metric, y, x) if backward else d(metric, x, y))
                   for x in points for y in points]
    else:
        pts = map_spec.orbit(seed, orbit_len + 2)
        far = 1 if regime is Regime.ORBITAL else 2
        samples = [(pts[i], pts[i + 1], d(metric, pts[i + 1], pts[i + 2]),
                    d(metric, pts[i], pts[i + far]))
                   for i in range(orbit_len + 1)]
    found = []
    for x, y, lhs, base in samples:
        if regime is Regime.TWO_STEP:
            rhs = mul(a, base)
        else:
            rhs = mul(mul(adjoint(a), base), a)
            m = rhs.data
            if (rhs.realization == "mat2" and m[0, 1] != m[1, 0]
                    and base.data[0, 1] == base.data[1, 0]):
                mean = 0.5 * m[0, 1] + 0.5 * m[1, 0]
                rhs = mat2(m[0, 0], mean, mean, m[1, 1])
        tolr = tol * (1.0 + reference_norm(rhs, NormKind.OPERATOR)) if tol else 0.0
        if not math.isfinite(tolr):  # an infinite tolerance would pass any sample
            tolr = 0.0
        if not reference_leq(lhs, rhs, metric.order, tolr):
            found.append((x, y, reference_norm(lhs, metric.norm),
                          reference_norm(rhs, metric.norm)))
    return found


T_GRID = 8
CODOMAINS = {
    "mat2-split": mat2_split,
    "mat2-split-scaled": lambda: mat2_split_scaled(0.3),
    "periodic-fn": lambda: periodic_fn(grid_size=T_GRID),
    "scalar-forward-one": scalar_forward_one,
    "scalar-backward-one": scalar_backward_one,
}


def random_coefficient(rng, metric, regime):
    """A random coefficient scaled into the regime's gates: norm up to 0.99
    in the metric's norm for the sandwich; nonnegative, diagonal for mat2,
    and of operator norm up to 1/2 for two-step."""
    two_step = regime is Regime.TWO_STEP
    lo = 0.0 if two_step else -1.0
    if metric.codomain == "mat2":
        m = rng.uniform(lo, 1.0, size=(2, 2))
        if two_step or rng.random() < 0.5:
            m = np.diag(np.diag(m))
        a = mat2(*m.ravel())
    elif metric.codomain == "sampled":
        a = sampled(metric.grid, rng.uniform(lo, 1.0, size=T_GRID))
    else:
        a = scalar(rng.uniform(lo, 1.0))
    size = norm(a, NormKind.OPERATOR if two_step else metric.norm)
    target = rng.uniform(0.0, 0.5 if two_step else 0.99)
    return scale(a, target / size) if size > target else a


@pytest.mark.parametrize("codomain", sorted(CODOMAINS))
@settings(max_examples=examples(60), deadline=None)
@given(order=st.sampled_from(OrderKind), norm_kind=st.sampled_from(NormKind),
       regime=st.sampled_from(Regime), seed=st.integers(0, 2**32 - 1))
def test_batched_core_matches_the_per_sample_loop(codomain, order, norm_kind,
                                                  regime, seed):
    rng = np.random.default_rng(seed)
    metric = replace(CODOMAINS[codomain](), order=order, norm=norm_kind)
    slope, shift = rng.uniform(-1.0, 1.0, size=2)
    if rng.random() < 0.75:
        map_spec = MapSpec("affine", lambda x: slope * x + shift)
    else:
        map_spec = piecewise_quarter()
    points = _rounded_points(rng, rng.integers(1, 7))
    kwargs = {"points": points.tolist(), "seed": float(points[0]),
              "orbit_len": int(rng.integers(2, 9)), "tol": 1e-9}
    a = random_coefficient(rng, metric, regime)
    _assert_matches_the_per_sample_loop(regime, map_spec, metric, a, kwargs)


def _rounded_points(rng, shape):
    """Random points in [-4, 4] to one decimal place, so that points repeat
    and distances tie, with some zeros of either sign."""
    points = np.round(rng.uniform(-4.0, 4.0, size=shape), 1)
    zeros = rng.random(shape) < 0.2
    points[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return points


def _assert_matches_the_per_sample_loop(regime, map_spec, metric, a, kwargs):
    """``verify`` fails as the per-sample loop does, or records its
    violations: the same (x, y) bit for bit, in the same order, with the
    same norms up to rounding."""
    try:
        expected = reference_violations(regime, map_spec, metric, a, **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            verify(regime, map_spec, metric, a, **kwargs)
        return
    cert = verify(regime, map_spec, metric, a, **kwargs)
    assert _hex_floats([(v["x"], v["y"]) for v in cert.violations]) == \
        _hex_floats([(np.asarray(x).tolist(), np.asarray(y).tolist())
                     for x, y, _, _ in expected])
    for v, (_, _, lhs_norm, rhs_norm) in zip(cert.violations, expected):
        assert math.isclose(v["lhs_norm"], lhs_norm, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(v["rhs_norm"], rhs_norm, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=examples(60), deadline=None)
@given(regime=st.sampled_from([Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL]),
       seed=st.integers(0, 2**32 - 1))
def test_mult_op_global_certificates_match_the_per_sample_loop(regime, seed):
    # function points, whose samples the table form broadcasts on the last
    # axis; rows repeat, as points may
    rng = np.random.default_rng(seed)
    metric = mult_op(np.linspace(0.25, 1.0, T_GRID))
    rows = _rounded_points(rng, (rng.integers(1, 4), T_GRID))
    points = list(rows[rng.integers(0, len(rows), size=rng.integers(1, 6))])
    slope, shift = rng.uniform(-1.0, 1.0, size=2)
    map_spec = MapSpec("affine", lambda f: slope * f + shift)
    a = random_coefficient(rng, metric, regime)
    _assert_matches_the_per_sample_loop(regime, map_spec, metric, a,
                                        {"points": points, "tol": 1e-9})


def test_a_rounding_skew_of_the_sandwich_is_no_error():
    # under the positive cone at tol = 0, the sandwich a* d a of a
    # non-symmetric coefficient is symmetric only up to rounding.  With
    # d = diag(b, 0), its off-diagonal entries are (a_00 b) a_01 and
    # (a_01 b) a_00, a bit apart at b = 1.5 and equal at b = 2.  The exact
    # sandwich is symmetric, so both entries get their mean and every sample
    # is checked
    metric = replace(mat2_split(), order=OrderKind.POSITIVE_CONE)
    a = mat2(0.1, 0.3, 0.0, 0.3)
    points = [0.0, 1.5, 2.0]
    sandwich = a.data.T @ np.diag([1.5, 0.0]) @ a.data
    assert sandwich[0, 1] != sandwich[1, 0]
    expected = reference_violations(Regime.FORWARD_GLOBAL, linear_quarter(), metric,
                                    a, points=points, tol=0.0)
    cert = verify(Regime.FORWARD_GLOBAL, linear_quarter(), metric, a, points=points,
                  tol=0.0)
    assert len(expected) == 6
    assert [(v["x"], v["y"], v["lhs_norm"]) for v in cert.violations] == \
        [found[:3] for found in expected]
    # np.hypot and math.hypot can round apart off the diagonal
    for v, (_, _, _, rhs_norm) in zip(cert.violations, expected):
        assert abs(v["rhs_norm"] - rhs_norm) <= math.ulp(rhs_norm)


def test_the_sandwich_mean_does_not_overflow():
    # off-diagonal entries 1.4535e308 and one ulp below: their sum overflows,
    # their mean does not, and the check runs
    metric = replace(mat2_split(), order=OrderKind.POSITIVE_CONE)
    a = mat2(0.9, 0.95, 0.0, 0.95)
    base = np.diag([1.7e308, 0.0])[None]
    split = a.data.T @ base[0] @ a.data
    assert split[0, 1] != split[1, 0]
    rhs = contraction._sandwich(Regime.FORWARD_GLOBAL, a, base)
    assert rhs[0, 0, 1] == rhs[0, 1, 0] == 0.5 * split[0, 1] + 0.5 * split[1, 0]
    assert math.isfinite(rhs[0, 0, 1])
    failed = contraction._failures(Regime.FORWARD_GLOBAL, metric, a,
                                   np.zeros((1, 2, 2)), base, 0.0)
    assert failed.shape == (1,)


@pytest.mark.parametrize("metric, a, lhs, base, tol", [
    # ||rhs||_op = 1.7e308 (0.81 + 0.9025) is beyond the floats
    (replace(mat2_split(), order=OrderKind.POSITIVE_CONE), mat2(0.9, 0.95, 0.0, 0.95),
     np.diag([1.7e308, 1.7e308]), np.diag([1.7e308, 0.0]), 1e-9),
    # ||rhs||_op = 1e10 is finite, tol (1 + ||rhs||_op) is not
    (scalar_forward_one(), scalar(0.5), np.array(2e10), np.array(4e10), 1e300),
], ids=["norm-overflows", "tolerance-overflows"])
def test_an_infinite_tolerance_checks_the_sample_at_zero(metric, a, lhs, base, tol):
    # the sample fails at tol 0; an infinite tolerance passed it unseen
    for t in (0.0, tol):
        failed = contraction._failures(Regime.FORWARD_GLOBAL, metric, a,
                                       lhs[None], base[None], t)
        assert failed.tolist() == [True]


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_verify_and_search_refuse_a_negative_or_nan_tol(tol):
    # a NaN tol reported the samples of a true contraction as violations,
    # and a negative one made the order strict
    points = [0.0, 1.0]
    calls = [
        lambda: verify(Regime.FORWARD_GLOBAL, linear_quarter(), scalar_forward_one(),
                       scalar(0.5), points=points, tol=tol),
        lambda: verify_orbital_type(linear_quarter(), mat2_split(), diag2(0.5, 0.5),
                                    seed=1.0, tol=tol),
        lambda: search_scalar_coefficient(linear_quarter(), scalar_forward_one(),
                                          Regime.FORWARD_GLOBAL, points=points, tol=tol),
        lambda: search_scalar_coefficient(linear_quarter(), mat2_split(),
                                          Regime.TWO_STEP, seed=1.0, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            call()


def test_verify_and_search_accept_a_zero_tol():
    cert = verify(Regime.FORWARD_GLOBAL, linear_quarter(), mat2_split_scaled(0.25),
                  diag2(0.5, 0.5), points=GRID, tol=0.0)
    assert cert.valid and cert.samples_checked == len(GRID) ** 2
    found = search_scalar_coefficient(linear_quarter(), mat2_split(), Regime.ORBITAL,
                                      seed=1.0, tol=0.0)
    assert found is not None and found.valid


SKEW = np.array([[0.0, 1e-3], [0.0, 0.0]])


@pytest.mark.parametrize("skewed", ["lhs", "base"])
def test_self_adjointness_gate_fires_on_the_same_sample(skewed):
    # a skew that is not the sandwich's rounding, in lhs or in a non-symmetric
    # base, is refused at tol 0 for the first sample that has it, with the
    # message the one-pair reference gives
    metric = replace(mat2_split(), order=OrderKind.POSITIVE_CONE)
    a = diag2(0.5, 0.25)
    lhs, base = np.zeros((3, 2, 2)), np.stack([np.eye(2)] * 3)
    tables = {"lhs": lhs, "base": base}
    tables[skewed][1] += SKEW
    tables[skewed][2] += 2 * SKEW
    with pytest.raises(NotSelfAdjoint) as want:
        for l, b in zip(lhs, base):
            rhs = mul(mul(adjoint(a), mat2(*b.ravel())), a)
            reference_leq(mat2(*l.ravel()), rhs, metric.order, 0.0)
    with pytest.raises(NotSelfAdjoint) as got:
        contraction._failures(Regime.FORWARD_GLOBAL, metric, a, lhs, base, 0.0)
    assert str(got.value) == str(want.value)


# --- orbit tables --------------------------------------------------------------------

def _two_call_orbit_tables(regime, map_spec, metric, seed, orbit_len):
    """The orbit regimes' stack and tables as two paired evaluations:
    lhs[i] = d(o[i+1], o[i+2]), and base[i] = d(o[i], o[i+1]) or
    d(o[i], o[i+2])."""
    orbit = map_spec.orbit(seed, orbit_len + 2)
    far = orbit[1:-1] if regime is Regime.ORBITAL else orbit[2:]
    return (metrics._points(metric, orbit),
            metrics.paired_payloads(metric, orbit[1:-1], orbit[2:]),
            metrics.paired_payloads(metric, orbit[:-2], far))


ORBIT_METRICS = [metric() for _, metric in sorted(CODOMAINS.items())] + [
    mult_op(np.linspace(0.25, 1.0, 4))]


@pytest.mark.parametrize("metric", ORBIT_METRICS, ids=lambda m: m.name)
@settings(max_examples=examples(40), deadline=None)
@given(regime=st.sampled_from([Regime.ORBITAL, Regime.TWO_STEP]),
       slope=st.floats(-2.0, 2.0), shift=st.floats(-1.0, 1.0),
       seed=st.floats(-1e3, 1e3) | st.sampled_from([-1.7e308, 1e308]),
       orbit_len=st.integers(2, 8))
def test_orbit_tables_are_the_two_paired_evaluations(metric, regime, slope, shift,
                                                     seed, orbit_len):
    # slopes above 1 and seeds near the largest float make orbits overflow
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        seed = seed * metric.grid
    args = (regime, map_spec, metric, seed, orbit_len)
    try:
        want = _two_call_orbit_tables(*args)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            contraction._tables(regime, map_spec, metric, None, seed, orbit_len)
        return
    got = contraction._tables(regime, map_spec, metric, None, seed, orbit_len)
    assert len(got[0]) == orbit_len + 3 and len(got[1]) == orbit_len + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


_FN = np.linspace(0.25, 1.0, 4)
_BAD_ORBITS = {  # a metric and an orbit (seed first) with a bad point in it
    "fn-shape": (mult_op(_FN), [_FN, _FN / 2, np.ones(3), _FN]),
    "fn-nan-then-shape": (mult_op(_FN), [_FN, np.full(4, np.nan), np.ones(3)]),
    "fn-scalar": (mult_op(_FN), [_FN, _FN / 2, 1.0]),
    "fn-inf": (mult_op(_FN), [_FN, _FN / 4, np.full(4, np.inf)]),
    "fn-seed": (mult_op(_FN), [np.ones(3), _FN]),
    "real-list": (mat2_split(), [1.0, 0.5, [1.0, 2.0]]),
    "real-nan": (scalar_forward_one(), [1.0, float("nan"), 0.1]),
    "real-none": (scalar_forward_one(), [1.0, 0.5, None]),
    "real-text": (scalar_forward_one(), [1.0, "x", 0.1]),
}


@pytest.mark.parametrize("regime", [Regime.ORBITAL, Regime.TWO_STEP])
@pytest.mark.parametrize("metric, orbit", _BAD_ORBITS.values(), ids=_BAD_ORBITS.keys())
def test_an_orbit_stack_raises_what_the_point_check_raises(metric, orbit, regime):
    # the tables walk the orbit, then check it as one stack: the error is
    # that of checking the whole orbit at once.  The shortest orbit the
    # tables take has 5 points, so a shorter one repeats its last point
    orbit_len = max(2, len(orbit) - 3)
    walked = orbit + orbit[-1:] * (orbit_len + 3 - len(orbit))
    with pytest.raises(Exception) as want:
        metrics._points(metric, walked)
    images = iter(walked[1:])
    map_spec = MapSpec("listed", lambda x: next(images))
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        contraction._tables(regime, map_spec, metric, None, walked[0], orbit_len)


@pytest.mark.parametrize("regime, evaluations", [(Regime.ORBITAL, 1),
                                                 (Regime.TWO_STEP, 2)])
def test_orbit_tables_map_the_orbit_once(monkeypatch, regime, evaluations):
    applied, evaluated = [], []
    quarter = MapSpec("counted-quarter", lambda x: applied.append(x) or x / 4.0)
    paired = contraction._paired_on
    monkeypatch.setattr(contraction, "_paired_on",
                        lambda *args: evaluated.append(args) or paired(*args))
    stack, lhs, base = contraction._tables(regime, quarter, mat2_split(),
                                           None, 1.0, 10)
    assert len(stack) == 13 and len(lhs) == len(base) == 11
    assert len(applied) == 12  # the orbit of 12 steps, once
    assert len(evaluated) == evaluations


# --- global tables -------------------------------------------------------------------

def _counting_quarter(applied: list) -> MapSpec:
    return MapSpec("counted-quarter", lambda x: applied.append(x) or x / 4.0)


@pytest.mark.parametrize("regime", [Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL])
def test_global_regimes_map_each_point_once(regime):
    # the n points are mapped once each, as floats, not once per sample;
    # a repeated point is a row of its own and is mapped again
    grid = np.linspace(-2.0, 2.0, 9)
    points = [*grid, -0.0, grid[0]]
    metric = mat2_split_scaled(0.25)
    applied: list = []
    cert = verify(regime, _counting_quarter(applied), metric, diag2(0.3, 0.3),
                  points=points)
    assert cert.samples_checked == len(points) ** 2
    assert [float.hex(p) for p in applied] == [float.hex(float(x)) for x in points]
    assert all(type(p) is float for p in applied)
    applied.clear()
    search_scalar_coefficient(_counting_quarter(applied), metric, regime, points=points)
    assert len(applied) == len(points)


def _paired_global_tables(regime, map_spec, metric, points):
    """The global regimes' tables as two paired evaluations over the n^2
    samples (x_i, x_j) in row-major order: lhs = d(Tx_i, Tx_j), and base =
    d(x_i, x_j), or d(x_j, x_i) backward."""
    def grid_pairs(seq):
        return [x for x in seq for _ in seq], [y for _ in seq for y in seq]

    xs, ys = grid_pairs(points)
    if regime is Regime.BACKWARD_GLOBAL:
        xs, ys = ys, xs
    return (metrics.paired_payloads(metric, *grid_pairs([map_spec.apply(p)
                                                          for p in points])),
            metrics.paired_payloads(metric, xs, ys))


@pytest.mark.parametrize("metric", ORBIT_METRICS, ids=lambda m: m.name)
@settings(max_examples=examples(40), deadline=None)
@given(regime=st.sampled_from([Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL]),
       slope=st.floats(-2.0, 2.0), shift=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_global_tables_are_the_two_paired_evaluations(metric, regime, slope, shift,
                                                      seed, n):
    # the table form on the points and on their images gives the payloads
    # of the paired form bit for bit, -0.0 and repeated points included
    rng = np.random.default_rng(seed)
    map_spec = MapSpec("affine", lambda x: slope * x + shift)
    if metric.name == "mult-op":
        points = list(_rounded_points(rng, (n, metric.grid.size)))
    else:
        points = _rounded_points(rng, n).tolist()
    want = _paired_global_tables(regime, map_spec, metric, points)
    stack, *got = contraction._tables(regime, map_spec, metric, points, None, 0)
    assert stack.tobytes() == np.asarray(points, dtype=float).tobytes()
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _hex_floats(value):
    """``value`` with every float as its ``float.hex``, so that equal trees
    have the same bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: _hex_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex_floats(v) for v in value]
    return value


@pytest.mark.parametrize("regime", [Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL])
@pytest.mark.parametrize("metric", [mat2_split_scaled(0.4), mat2_split(),
                                    scalar_forward_one(), periodic_fn()],
                         ids=lambda m: m.name)
def test_numpy_float_points_certify_as_their_float_points(regime, metric):
    grid = np.sort(np.random.default_rng(5).uniform(-2.0, 2.0, 11))
    grid[3] = -0.0
    a = codomain_scalar(metric, 0.3)
    quarter = linear_quarter()
    want = verify(regime, quarter, metric, a, points=grid.tolist())
    assert want.violations
    for points in (grid, list(grid)):  # an array, and np.float64 objects
        got = verify(regime, quarter, metric, a, points=points)
        for name in [field.name for field in dataclasses.fields(want)] + ["a_norm"]:
            g, w = getattr(got, name), getattr(want, name)
            if isinstance(w, algebra.AlgebraElement):
                g, w = algebra.element_to_json(g), algebra.element_to_json(w)
            assert _hex_floats(g) == _hex_floats(w), name
        assert all(type(v["x"]) is float and type(v["y"]) is float
                   for v in got.violations)
