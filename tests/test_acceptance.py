"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from quasifix.algebra import NormKind, allclose, diag2, norm, scalar
from quasifix.contraction import (
    Regime,
    search_scalar_coefficient,
    verify,
    verify_orbital_type,
)
from quasifix.convergence import Verdict, classify
from quasifix.gallery import run_gallery
from quasifix.integral import (
    closed_form_constant_integral,
    closed_form_identity_integral,
    contraction_rate,
    make_problem,
    quadrature,
    run_demo,
)
from quasifix.maps import linear_quarter, piecewise_quarter
from quasifix.metrics import (
    eval_metric,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    scalar_backward_one,
    scalar_forward_one,
)
from quasifix.solver import (
    SolverConfig,
    picard_solve,
    uniqueness_probe,
)

import lemma_checks


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exhaustive_axiom_sweep():
    from quasifix.metrics import check_axioms
    grid = np.linspace(-2.0, 2.0, 41)
    start = time.perf_counter()
    report = check_axioms(mat2_split(), grid, tol=1e-12)
    elapsed = time.perf_counter() - start
    ok = (report.triples_tested == 41 ** 3 and report.passed and elapsed < 1.0)
    _report(1, ok, f"{report.triples_tested} triples, "
                   f"{len(report.positivity_violations)}/"
                   f"{len(report.identity_violations)}/"
                   f"{len(report.triangle_violations)} violations, "
                   f"{elapsed:.3f} s")


def test_criterion_2_asymmetry_witnesses():
    split = mat2_split()
    split_ok = not allclose(eval_metric(split, 1.0, 2.0),
                            eval_metric(split, 2.0, 1.0))
    per = periodic_fn(period=1.0, grid_size=64)
    up = norm(eval_metric(per, 0.5, 0.0), per.norm)
    down = norm(eval_metric(per, 0.0, 0.5), per.norm)
    periodic_ok = up != down
    grid = np.linspace(0.1, 1.0, 64)
    mo = mult_op(grid)
    f, g = grid + 1.0, grid  # f > g everywhere
    factor_gap = abs(norm(eval_metric(mo, f, g), mo.norm)
                     - 0.5 * norm(eval_metric(mo, g, f), mo.norm))
    mult_ok = factor_gap <= 1e-12
    _report(2, split_ok and periodic_ok and mult_ok,
            f"split d(1,2)!=d(2,1): {split_ok}; periodic norms {up:.6f} vs "
            f"{down:.6f}; mult-op factor gap {factor_gap:.2e}")


def test_criterion_3_lemma_suite():
    rng = np.random.default_rng(20240817)
    failures = {
        "conjugation-preserves-order":
            lemma_checks.conjugation_preserves_order(rng, 1000, 1e-10),
        "order-dominates-norm":
            lemma_checks.order_dominates_norm(rng, 1000, 1e-10),
        "unit-interval-iff-norm":
            lemma_checks.unit_interval_iff_norm_at_most_one(rng, 1000, 1e-10),
        "resolvent-product-contracts":
            lemma_checks.resolvent_product_contracts(rng, 1000, 1e-10),
        "resolvent-preserves-order":
            lemma_checks.resolvent_preserves_order(rng, 1000, 1e-10),
    }
    ok = all(count == 0 for count in failures.values())
    _report(3, ok, f"failures per property (1000 instances each): {failures}")


def test_criterion_4_contraction_certificates():
    found = search_scalar_coefficient(linear_quarter(), mat2_split_scaled(0.25),
                                      Regime.FORWARD_GLOBAL,
                                      points=np.linspace(-2, 2, 17),
                                      tol=1e-12)
    c = None if found is None else float(found.a.data[0, 0])
    search_ok = found is not None and abs(c - 0.5) <= 1e-9

    negative_ok = search_scalar_coefficient(
        piecewise_quarter(), scalar_backward_one(), Regime.FORWARD_GLOBAL,
        points=[0.0, 0.5, 1.0, 2.0]) is None

    orbital = verify_orbital_type(piecewise_quarter(), scalar_backward_one(),
                                  scalar(1 / math.sqrt(2)), seed=1.0,
                                  orbit_len=30)
    orbital_ok = orbital.valid and orbital.samples_checked == 31
    _report(4, search_ok and negative_ok and orbital_ok,
            f"minimal scalar {c}; negative search returns none: {negative_ok}; "
            f"orbital 1/sqrt(2) valid over 31 orbit points: {orbital_ok}")


def test_criterion_5_solver_and_bound_envelope():
    metric = mat2_split_scaled(0.25)
    cert = verify(Regime.FORWARD_GLOBAL, linear_quarter(), metric, diag2(0.5, 0.5),
                  points=np.linspace(-3, 7, 21), tol=1e-12)
    cfg = SolverConfig(tol=1e-10)
    details = []
    ok = True
    for seed in (-3.0, 0.5, 7.0):
        rep = picard_solve(linear_quarter(), metric, seed, cert, cfg)
        seed_ok = (rep.converged and rep.iterations <= 25
                   and rep.residual_forward <= 1e-10
                   and rep.residual_backward <= 1e-10)
        # geometric envelope at every recorded p, both argument orders,
        # each order against the step distance taken in the same order
        env_ok = rep.predicted_bounds_rev is not None
        for obs, bound in zip(rep.observed_tail, rep.predicted_bounds):
            env_ok = env_ok and obs <= bound + 1e-10
        for obs, bound in zip(rep.observed_tail_rev, rep.predicted_bounds_rev):
            env_ok = env_ok and obs <= bound + 1e-10
        ok = ok and seed_ok and env_ok
        details.append(f"seed {seed}: {rep.iterations} iters, "
                       f"residual {rep.residual_forward:.2e}, envelope {env_ok}")
    spread = uniqueness_probe(linear_quarter(), metric, cert,
                              [-3.0, 0.5, 7.0], cfg)
    ok = ok and spread <= 2e-10
    _report(5, ok, "; ".join(details) + f"; spread {spread:.2e}")


def test_criterion_6_two_step_rate():
    cert = verify(Regime.TWO_STEP, linear_quarter(), scalar_backward_one(),
                  scalar(1 / 3), seed=1.0, orbit_len=30)
    h_ok = cert.valid and abs(cert.h_norm - 0.5) <= 1e-12
    cfg = SolverConfig(max_iter=30, tol=1e-300)
    rep = picard_solve(linear_quarter(), scalar_backward_one(), 1.0, cert, cfg)
    steps = rep.trace.fwd_step_norms
    rate_ok = len(steps) == 30 and all(
        cur <= 0.5 * prev + 1e-10 for prev, cur in zip(steps, steps[1:]))
    _report(6, h_ok and rate_ok,
            f"h = {cert.h_norm}; h-rate holds at every one of "
            f"{len(steps) - 1} steps: {rate_ok}")


def test_criterion_7_integral_closed_forms_and_demo():
    worst = 0.0
    for k in (0.1, 0.5, 1.0, 4.0, 10.0):
        prob = make_problem(0.5, k, n=10_000)
        g = prob.grid_array
        worst = max(worst,
                    abs(quadrature(g / (g * g + k), prob)
                        - closed_form_identity_integral(k)),
                    abs(quadrature(1.0 / (g * g + k), prob)
                        - closed_form_constant_integral(k)))
    quad_ok = worst <= 1e-6
    rate = contraction_rate(0.5, 4.0)
    rate_ok = abs(rate - 0.1159) <= 1e-4
    start = time.perf_counter()
    demo = run_demo(make_problem(0.5, 4.0, n=2048),
                    SolverConfig(tol=1e-8, max_iter=200))
    elapsed = time.perf_counter() - start
    demo_ok = (demo.solver["converged"] and demo.equation_residual <= 1e-8
               and elapsed < 5.0)
    _report(7, quad_ok and rate_ok and demo_ok,
            f"worst quadrature error {worst:.2e}; rate {rate:.6f}; demo "
            f"residual {demo.equation_residual:.2e} in {elapsed:.2f} s")


def test_criterion_8_forward_backward_discrimination():
    seq = [1.0 * (1.0 + 1.0 / n) for n in range(1, 201)]
    verdict = classify(seq, 1.0, scalar_forward_one(), eps=0.01, window=20)
    exact_ones = all(v == 1.0 for v in verdict.evidence["tail_backward"])
    ok = (verdict.forward is Verdict.CONVERGES
          and verdict.backward is Verdict.DIVERGES and exact_ones)
    _report(8, ok, f"forward {verdict.forward.value}, backward "
                   f"{verdict.backward.value}, backward distances exactly 1: "
                   f"{exact_ones}")


def test_criterion_9_gallery():
    lines: list[str] = []
    code = run_gallery(lines.append)
    xfails = [line for line in lines if line.startswith("XFAIL")]
    ok = (code == 0 and len(xfails) == 2
          and any("sandwich-coefficient-consistency" in line for line in xfails)
          and any("integral-growth-vs-contraction" in line for line in xfails))
    _report(9, ok, f"exit {code}, {len(xfails)} expected failures: "
                   f"{[line.split()[1] for line in xfails]}")
