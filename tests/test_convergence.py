from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifix import metrics
from quasifix.algebra import NormKind
from quasifix.convergence import (
    Verdict,
    WindowTooLarge,
    classify,
    orbital_lsc_check,
)
from quasifix.maps import MapSpec, linear_quarter
from quasifix.metrics import (
    MetricSpec,
    distance_norm,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    reversed_metric,
    scalar_backward_one,
    scalar_forward_one,
)

from budget import examples
from reference_metrics import reference_distance_norm


# One-pair reference: every distance goes through the one-pair reference
# formulas, in the order the classification reads them.
def reference_classify(seq: list, candidate, metric: MetricSpec, eps: float,
                       window: int) -> tuple:
    """The verdicts, the candidate's distances in both orders and the
    window's pair maxima (None without a pair) of the one-pair reference."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if window < 1 or window >= len(seq):
        raise WindowTooLarge(f"window {window} does not fit")
    d = reference_distance_norm
    fwd = [d(metric, candidate, x) for x in seq]
    bwd = [d(metric, x, candidate) for x in seq]
    tail = seq[len(seq) - window:]
    pairs = [(d(metric, x, y), d(metric, y, x))
             for p, x in enumerate(tail) for y in tail[p + 1:]]
    pair_fwd = max((f for f, _ in pairs), default=None)
    pair_bwd = max((b for _, b in pairs), default=None)
    maxima = (max(fwd[-window:]), max(bwd[-window:]), pair_fwd, pair_bwd)
    verdicts = [Verdict.INCONCLUSIVE if m is None
                else Verdict.CONVERGES if m <= eps else Verdict.DIVERGES
                for m in maxima]
    return verdicts, fwd, bwd, pair_fwd, pair_bwd


def harmonic_scaled(x: float, n: int) -> list[float]:
    return [x * (1.0 + 1.0 / i) for i in range(1, n + 1)]


# --- classification -----------------------------------------------------------

def test_forward_limit_without_backward_limit():
    spec = scalar_forward_one()
    seq = harmonic_scaled(1.0, 200)
    verdict = classify(seq, 1.0, spec, eps=0.01, window=20)
    assert verdict.forward is Verdict.CONVERGES
    assert verdict.backward is Verdict.DIVERGES
    assert all(v == 1.0 for v in verdict.evidence["tail_backward"])


def test_constant_sequence_converges_every_way():
    spec = mat2_split()
    verdict = classify([0.7] * 30, 0.7, spec, eps=1e-12, window=10)
    assert verdict.forward is Verdict.CONVERGES
    assert verdict.backward is Verdict.CONVERGES
    assert verdict.forward_cauchy is Verdict.CONVERGES
    assert verdict.backward_cauchy is Verdict.CONVERGES


def test_geometric_orbit_converges_both_ways_with_geometric_tail():
    spec = mat2_split()
    x0 = 1.0
    seq = [x0 * 0.25 ** n for n in range(25)]
    window = 5
    verdict = classify(seq, 0.0, spec, eps=1e-10, window=window)
    assert verdict.forward is Verdict.CONVERGES
    assert verdict.backward is Verdict.CONVERGES
    # the tail is dominated by its first element x0 / 4^(start index)
    start = len(seq) - window
    assert verdict.evidence["tail_forward_max"] <= 0.25 ** start * x0 + 1e-15


def test_window_gate():
    with pytest.raises(WindowTooLarge):
        classify([1.0, 2.0], 0.0, scalar_forward_one(), eps=1.0, window=2)
    with pytest.raises(WindowTooLarge):
        classify([1.0, 2.0], 0.0, scalar_forward_one(), eps=1.0, window=0)


def test_single_point_window_leaves_cauchy_inconclusive():
    verdict = classify([1.0, 1.0, 1.0], 1.0, scalar_forward_one(),
                       eps=0.1, window=1)
    assert verdict.forward_cauchy is Verdict.INCONCLUSIVE
    assert verdict.backward_cauchy is Verdict.INCONCLUSIVE


def test_classification_is_monotone_in_eps():
    spec = scalar_forward_one()
    seq = harmonic_scaled(1.0, 100)
    small = classify(seq, 1.0, spec, eps=0.02, window=10)
    large = classify(seq, 1.0, spec, eps=0.2, window=10)
    assert small.forward is Verdict.CONVERGES
    assert large.forward is Verdict.CONVERGES


def test_reversed_metric_swaps_all_verdicts():
    spec = scalar_forward_one()
    seq = harmonic_scaled(1.0, 80)
    plain = classify(seq, 1.0, spec, eps=0.05, window=10)
    flipped = classify(seq, 1.0, reversed_metric(spec), eps=0.05, window=10)
    assert plain.forward == flipped.backward
    assert plain.backward == flipped.forward
    assert plain.forward_cauchy == flipped.backward_cauchy
    assert plain.backward_cauchy == flipped.forward_cauchy


# --- orbital lower semicontinuity ------------------------------------------------

def test_lsc_at_zero_for_quarter_map():
    spec = scalar_backward_one()
    quarter = linear_quarter()
    orbit = quarter.orbit(1.0, 40)
    assert orbital_lsc_check(orbit, 0.0, quarter, spec)


def test_lsc_trivial_on_fixed_point_orbit():
    spec = scalar_backward_one()
    quarter = linear_quarter()
    orbit = quarter.orbit(0.0, 10)
    assert orbital_lsc_check(orbit, 0.0, quarter, spec)


def test_lsc_fails_across_a_jump():
    jump = MapSpec("jump-half", lambda x: x / 2.0 if x > 0 else 1.0)
    spec = scalar_backward_one()
    orbit = jump.orbit(1.0, 40)
    # G(0) = d(0, T0) = d(0, 1) = 1, but G along the orbit vanishes
    assert orbital_lsc_check(orbit, 0.0, jump, spec) is False


# --- completeness mirror ----------------------------------------------------------

def test_periodic_metric_limits_are_controlled_by_plain_gaps():
    period = 2.0
    spec = periodic_fn(period=period, grid_size=64)
    seq = [1.0 + 0.5 ** n for n in range(2, 40)]
    x = 1.0
    for xn in seq[-10:]:
        gap = abs(xn - x)
        both = max(distance_norm(spec, x, xn), distance_norm(spec, xn, x))
        assert both <= gap * max(1.0, period) + 1e-15
    verdict = classify(seq, x, spec, eps=1e-3, window=5)
    assert verdict.forward is Verdict.CONVERGES
    assert verdict.backward is Verdict.CONVERGES


# --- the verdict's distances ---------------------------------------------------------

def test_the_verdict_keeps_every_distance_and_the_window_maxima():
    spec = mat2_split()
    seq = [1.0, 0.5, 0.25]
    verdict = classify(seq, 0.0, spec, eps=0.3, window=2)
    d = reference_distance_norm
    assert verdict.forward_dists == tuple(d(spec, 0.0, x) for x in seq)
    assert verdict.backward_dists == tuple(d(spec, x, 0.0) for x in seq)
    assert verdict.evidence["pair_forward_max"] == d(spec, 0.5, 0.25)
    assert verdict.evidence["pair_backward_max"] == d(spec, 0.25, 0.5)
    # the distances stay out of the JSON
    assert set(verdict.to_json_dict()) == {"forward", "backward", "forward_cauchy",
                                           "backward_cauchy", "evidence"}


# --- classification against the one-pair reference ----------------------------------

FN_GRID = np.linspace(0.125, 1.0, 4)
TRACE_SPECS = [
    mat2_split(),
    mat2_split_scaled(0.25),
    periodic_fn(3.0, 8),
    scalar_forward_one(),
    scalar_backward_one(),
    mult_op(FN_GRID),
]
TRACE_SPECS = [replace(spec, norm=kind) for spec in TRACE_SPECS for kind in NormKind]
TRACE_SPECS += [reversed_metric(spec) for spec in TRACE_SPECS]


def _trace_id(spec):
    return "-".join([spec.name, spec.norm.value] + ["reversed"] * spec.swap_args)


def _hex(value):
    return None if value is None else value.hex()


def _outcome(*args):
    """The classification's verdicts, distances and pair maxima as exact
    bits (``float.hex``), or the exception type.

    Norms whose squares are beyond the float range are taken on scaled
    values, without a RuntimeWarning, in both forms."""
    try:
        verdict = classify(*args)
    except Exception as exc:
        return type(exc)
    values = [*verdict.forward_dists, *verdict.backward_dists]
    assert all(type(v) is float for v in values)
    evidence = verdict.evidence
    return ([verdict.forward, verdict.backward, verdict.forward_cauchy,
             verdict.backward_cauchy],
            [v.hex() for v in verdict.forward_dists],
            [v.hex() for v in verdict.backward_dists],
            _hex(evidence["pair_forward_max"]), _hex(evidence["pair_backward_max"]))


def _reference_outcome(*args):
    try:
        verdicts, fwd, bwd, pair_fwd, pair_bwd = reference_classify(*args)
    except Exception as exc:
        return type(exc)
    return (verdicts, [v.hex() for v in fwd], [v.hex() for v in bwd],
            _hex(pair_fwd), _hex(pair_bwd))


@pytest.mark.parametrize("spec", TRACE_SPECS, ids=_trace_id)
@settings(max_examples=examples(30), deadline=None)
@given(data=st.data())
def test_classify_matches_the_one_pair_reference(spec, data):
    # a small pool drawn with repeats, so points and distances coincide;
    # values near the largest float make distances and their norms overflow
    value = st.one_of(st.floats(-8.0, 8.0), st.floats(allow_infinity=False),
                      st.sampled_from([-1.7e308, -1e308, 1e308, 1.7e308]))
    if spec.name == "mult-op":
        value = st.lists(value, min_size=FN_GRID.size, max_size=FN_GRID.size)
    pool = data.draw(st.lists(value, min_size=1, max_size=4))
    point = st.sampled_from(pool)
    seq = data.draw(st.lists(point, max_size=7))
    candidate = data.draw(point)
    window = data.draw(st.integers(-1, len(seq) + 2))
    eps = data.draw(st.sampled_from([1e-300, 0.5, 4.0, 1e308]))
    if spec.name == "mult-op":
        seq = [np.asarray(f) for f in seq]
        candidate = np.asarray(candidate)
    assert _outcome(seq, candidate, spec, eps, window) == \
        _reference_outcome(seq, candidate, spec, eps, window)


def test_classify_evaluates_no_pair_one_at_a_time(monkeypatch):
    calls = []
    one_pair = metrics.eval_metric

    def counted(spec, x, y):
        calls.append((x, y))
        return one_pair(spec, x, y)

    monkeypatch.setattr(metrics, "eval_metric", counted)
    seq = harmonic_scaled(1.0, 400)
    # the counter sees one-pair evaluations
    metrics.distance_norm(scalar_forward_one(), seq[0], seq[1])
    assert len(calls) == 1
    calls.clear()
    verdict = classify(seq, 1.0, scalar_forward_one(), eps=0.01, window=40)
    assert verdict.forward is Verdict.CONVERGES
    # the candidate distances and the window pairs come from tables
    assert not calls


@pytest.mark.parametrize("spec", TRACE_SPECS, ids=_trace_id)
def test_a_window_that_does_not_fit_is_refused_before_any_point_is_read(spec):
    candidate = np.full(FN_GRID.size, np.nan) if spec.name == "mult-op" else np.nan
    point = np.zeros(FN_GRID.size) if spec.name == "mult-op" else 0.0
    for seq in ([], [point]):
        with pytest.raises(WindowTooLarge):
            classify(seq, candidate, spec, eps=1.0, window=1)
    with pytest.raises(metrics.DomainMismatch):
        classify([point, point], candidate, spec, eps=1.0, window=1)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_eps_must_be_a_positive_number(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        classify([1.0, 0.5, 0.25], 0.0, scalar_forward_one(), eps=eps, window=2)
