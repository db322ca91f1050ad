from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifix import cli, convergence, metrics
from quasifix.cli import _json_text, _make_parser, main
from quasifix.gallery import run_gallery

from budget import examples


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _strip_timestamp(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("timestamp")
    return payload


# --- check-axioms -----------------------------------------------------------

def test_check_axioms_clean_run(tmp_path, capsys):
    report = tmp_path / "axioms.json"
    code = main(["check-axioms", "--metric", "mat2-split",
                 "--grid", "lin:-2:2:41", "--tol", "1e-12",
                 "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "68921 triples" in out
    payload = _load(report)
    assert payload["report"]["passed"] is True
    assert payload["manifest"]["command"] == "check-axioms"


def test_check_axioms_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["check-axioms", "--metric", "periodic-fn", "--period", "1.0",
            "--grid", "lin:-1:1:9", "--tol", "1e-12"]
    assert main(argv + ["--report", str(first)]) == 0
    assert main(argv + ["--report", str(second)]) == 0
    assert _strip_timestamp(_load(first)) == _strip_timestamp(_load(second))


def test_check_axioms_random_grid_is_seeded(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["check-axioms", "--metric", "scalar-forward-one",
            "--grid", "random:12", "--seed-rng", "7"]
    assert main(argv + ["--report", str(first)]) == 0
    assert main(argv + ["--report", str(second)]) == 0
    assert _strip_timestamp(_load(first)) == _strip_timestamp(_load(second))


def test_check_axioms_prints_the_witness_as_plain_floats(capsys):
    # numpy 2 prints its scalars as np.float64(...), numpy 1 as plain floats
    assert main(["check-axioms", "--metric", "mat2-split", "--grid", "2"]) == 0
    assert "  asymmetry witness     : (-2.0, 2.0)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", [
    ["--metric", "mat2-split", "--grid=nan,1,2"],
    ["--metric", "mat2-split", "--grid=inf,0,1"],
    ["--metric", "mat2-split", "--grid", "1e308,-1e308,0"],
    ["--metric", "periodic-fn", "--order", "entrywise"],
    ["--metric", "scalar-forward-one", "--order", "entrywise"],
], ids=["nan", "inf", "overflow", "entrywise-sampled", "entrywise-scalar"])
def test_check_axioms_refuses_what_it_cannot_compare(argv, capsys):
    assert main(["check-axioms", *argv]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "-1e-300", "nan"])
def test_check_axioms_rejects_a_negative_tolerance(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-axioms", "--metric", "mat2-split", "--grid", "lin:-2:2:9",
              "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-axioms", "--metric", "mult-op"],
    ["classify", "--metric", "mult-op", "--seq", "1,2,3", "--candidate", "1",
     "--eps", "0.1", "--window", "2"],
    ["check-axioms", "--metric", "no-such-metric"],
    ["check-axioms", "--metric", "mat2-split", "--fn-grid", "64"],
], ids=["mult-op", "classify-mult-op", "unknown", "fn-grid"])
def test_metrics_the_cli_cannot_parse_points_for_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--metric" in err or "--fn-grid" in err


def test_check_axioms_accepts_a_zero_tolerance():
    assert main(["check-axioms", "--metric", "mat2-split", "--grid", "5",
                 "--tol", "0"]) == 0


def test_check_axioms_takes_a_periodic_distance_whose_product_overflows(capsys):
    # d(x, y)(0) = (y - x)(7 - 0) / 7 = 5e307, though (y - x) 7 overflows
    spec = metrics.periodic_fn(7.0, 2)
    assert metrics.eval_metric(spec, -2.5e307, 2.5e307).data.tolist() == [5e307, 2.5e307]
    assert main(["check-axioms", "--metric", "periodic-fn", "--period", "7",
                 "--t-grid", "2", "--grid=-2.5e307,2.5e307"]) == 0
    assert "error" not in capsys.readouterr().err


_HALF_IDENTITY_CHECK = [
    "certify", "--map", "linear-quarter", "--metric", "mat2-split",
    "--regime", "forward", "--grid", "lin:-2:2:5",
    "--a", '{"realization": "mat2", "entries": [[0.5, 0], [0, 0.5]]}']
_ORBITAL_CHECK = [
    "certify", "--map", "linear-quarter", "--metric", "mat2-split",
    "--regime", "orbital", "--seed", "1.0",
    "--a", '{"realization": "mat2", "entries": [[0.6, 0], [0, 0.6]]}']
_PERIODIC_CHECK = [
    "certify", "--map", "linear-quarter", "--metric", "periodic-fn",
    "--regime", "orbital", "--search", "--seed", "1.0"]


@pytest.mark.parametrize("tol", ["-1", "-1e-300", "nan"])
def test_certify_rejects_a_negative_tolerance(tol, capsys):
    # at --tol=-1 the order check turned against a certificate that holds
    # and reported 25 violations of 25
    with pytest.raises(SystemExit) as exc:
        main([*_HALF_IDENTITY_CHECK, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_certify_accepts_a_zero_tolerance(capsys):
    assert main([*_HALF_IDENTITY_CHECK, "--tol=0"]) == 0
    assert "25 samples, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["1e150,-1e150,0", "1e160,-1e160,0"])
def test_certify_finds_violations_beyond_the_squaring_range(grid, capsys):
    # d(1e160, -1e160) has a squared norm above the largest float; the order
    # check's tolerance tol (1 + ||rhs||) was inf there, so every sample passed
    code = main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--regime", "forward", "--grid", grid,
                 "--a", '{"realization": "mat2", "entries": [[0.1, 0], [0, 0.1]]}'])
    assert code == 1
    assert "9 samples, 6 violations" in capsys.readouterr().out


# --- classify ----------------------------------------------------------------

def test_classify_forward_only_sequence(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(["classify", "--metric", "scalar-forward-one",
                 "--seq", "harmonic:1:200", "--candidate", "1",
                 "--eps", "0.01", "--window", "20", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "forward          : converges" in out
    assert "backward         : diverges" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "n,x_n,fwd_dist,bwd_dist"
    assert len(lines) == 201


def test_classify_trace_classifies_once(tmp_path, monkeypatch):
    # every distance is evaluated once: the candidate against each of the
    # 50 points in both orders, and the 5-point window against itself; the
    # CSV writes the verdict's own distances
    rows, verdicts = [], []
    kernel, classify = metrics._kernel, cli.classify

    def counted(spec, X, Y):
        comps = kernel(spec, X, Y)
        rows.append(comps[..., 0].size)
        return comps

    for module in (metrics, convergence):
        monkeypatch.setattr(module, "_kernel", counted)
    monkeypatch.setattr(cli, "classify", lambda *a: verdicts.append(classify(*a)) or verdicts[-1])
    trace = tmp_path / "t.csv"
    assert main(["classify", "--metric", "scalar-forward-one", "--seq", "harmonic:1.0:50",
                 "--candidate", "1.0", "--eps", "0.1", "--window", "5",
                 "--trace", str(trace)]) == 0
    assert sum(rows) == 2 * 50 + 5 * 5
    (verdict,) = verdicts
    header, *body = trace.read_text().splitlines()
    assert header == "n,x_n,fwd_dist,bwd_dist" and len(body) == 50
    cells = [line.split(",") for line in body]
    assert [float(c[2]).hex() for c in cells] == [v.hex() for v in verdict.forward_dists]
    assert [float(c[3]).hex() for c in cells] == [v.hex() for v in verdict.backward_dists]


# --- certify and solve ----------------------------------------------------------

def test_certify_search_then_solve(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(["certify", "--map", "linear-quarter",
                 "--metric", "mat2-split-scaled", "--regime", "forward",
                 "--search", "--grid", "lin:-2:2:17", "--tol", "1e-12",
                 "--out", str(cert)])
    assert code == 0
    payload = _load(cert)
    assert payload["report"]["valid"] is True
    assert abs(payload["report"]["a"]["entries"][0][0] - 0.5) <= 1e-9

    report = tmp_path / "solve.json"
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--map", "linear-quarter",
                 "--metric", "mat2-split-scaled", "--seed", "1",
                 "--cert", str(cert), "--tol", "1e-10",
                 "--max-iter", "1000", "--trace", str(trace),
                 "--report", str(report)])
    assert code == 0
    solved = _load(report)["report"]
    assert solved["converged"] is True
    assert abs(solved["fixed_point"]) <= 1e-9
    assert trace.read_text().startswith("n,x_n,fwd_step_norm")


def test_explicit_check_on_a_catalog_metric_makes_no_one_pair_calls(
        tmp_path, one_pair_calls):
    cert = tmp_path / "cert.json"
    code = main(["certify", "--map", "linear-quarter",
                 "--metric", "mat2-split-scaled", "--regime", "forward",
                 "--a", '{"realization": "mat2", "entries": [[0.3, 0], [0, 0.3]]}',
                 "--grid", "lin:-2:2:21", "--out", str(cert)])
    assert code == 1
    report = _load(cert)["report"]
    assert report["samples_checked"] == 21 * 21
    assert len(report["violations"]) == 21 * 20
    assert one_pair_calls == []


@pytest.mark.parametrize("regime, grid", [("forward", "random:19"),
                                          ("backward", "lin:-2:2:9"),
                                          ("forward", "-0.0,0.0,1e-300,2")])
def test_a_violating_certificate_is_written_as_json_dumps_writes_it(
        tmp_path, regime, grid):
    cert = tmp_path / "cert.json"
    code = main(["certify", "--map", "linear-quarter",
                 "--metric", "mat2-split-scaled", "--regime", regime,
                 "--a", '{"realization": "mat2", "entries": [[0.3, 0], [0, 0.3]]}',
                 f"--grid={grid}", "--out", str(cert)])
    assert code == 1
    text = cert.read_text(encoding="utf-8")
    assert json.loads(text)["report"]["violations"]
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_certify_rejects_oversized_coefficient(capsys):
    code = main(["certify", "--map", "linear-quarter",
                 "--metric", "scalar-backward-one", "--regime", "forward",
                 "--a", '{"realization": "scalar", "value": 1.5}'])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_certify_negative_search_exits_nonzero(capsys):
    code = main(["certify", "--map", "piecewise-quarter",
                 "--metric", "scalar-backward-one", "--regime", "forward",
                 "--search", "--grid", "0,0.5,1,2"])
    assert code == 1
    assert "no scalar certificate" in capsys.readouterr().err


def test_certify_two_step_verifies_explicit_coefficient(tmp_path):
    cert = tmp_path / "cert.json"
    code = main(["certify", "--map", "linear-quarter",
                 "--metric", "scalar-backward-one", "--regime", "two-step",
                 "--a", '{"realization": "scalar", "value": 0.3333333333333333}',
                 "--seed", "1", "--out", str(cert)])
    assert code == 0
    payload = _load(cert)["report"]
    assert payload["h_norm"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("c", ["2", "1", "1e300", "0.5000000000000001"])
def test_certify_two_step_gate_gives_no_tol_slack(c, capsys):
    # the gate compares the operator norm with 1/2 itself: a huge --tol
    # certifies no coefficient above it, and no singular or overflowing
    # resolvent I - c I is ever formed
    code = main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--regime", "two-step", "--seed", "2", "--tol", "1e300",
                 "--a", f'{{"realization": "mat2", "entries": [[{c}, 0], [0, {c}]]}}'])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: two-step coefficient operator norm")
    assert "Traceback" not in err


@pytest.mark.parametrize("entries, message", [
    ("[[-0.4, 0], [0, -0.4]]", "error: two-step coefficient must be positive"),
    ("[[0.3, 1e-12], [1e-12, 0.3]]", "error: two-step coefficient must be scalar"),
], ids=["negative", "non-diagonal"])
def test_certify_two_step_positivity_and_commutant_give_no_tol_slack(entries, message,
                                                                     capsys):
    # the gate gives no --tol slack: a = -0.4 I and a non-diagonal a are
    # refused even at --tol 1e300
    code = main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--regime", "two-step", "--seed", "2", "--tol", "1e300",
                 "--a", f'{{"realization": "mat2", "entries": {entries}}}'])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_certify_at_tol_zero_takes_the_sandwich_as_symmetric(capsys):
    # the sandwich a* d a at d = diag(1.5, 0) has off-diagonal entries
    # (0.1 * 1.5) * 0.3 and (0.3 * 1.5) * 0.1, a rounding bit apart; the exact
    # sandwich is symmetric, so the check runs instead of refusing it
    code = main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--order", "cone", "--regime", "forward", "--tol", "0",
                 "--grid", "0,1.5,2",
                 "--a", '{"realization": "mat2", "entries": [[0.1, 0.3], [0, 0.3]]}'])
    captured = capsys.readouterr()
    assert code == 1
    assert "9 samples, 6 violations" in captured.out
    assert captured.err == ""


_THIRD = '{"realization": "scalar", "value": 0.3333333333333333}'


def _two_step_cert(path: Path) -> dict:
    assert main(["certify", "--map", "linear-quarter",
                 "--metric", "scalar-backward-one", "--regime", "two-step",
                 "--a", _THIRD, "--seed", "1", "--out", str(path)]) == 0
    return _load(path)


def test_two_step_certify_then_solve_runs_at_the_h_rate(tmp_path):
    cert = tmp_path / "cert.json"
    h_norm = _two_step_cert(cert)["report"]["h_norm"]
    report = tmp_path / "solve.json"
    code = main(["solve", "--map", "linear-quarter",
                 "--metric", "scalar-backward-one", "--seed", "1",
                 "--cert", str(cert), "--report", str(report)])
    assert code == 0
    solved = _load(report)["report"]
    assert solved["bound_mode"] == "one-sided"
    assert solved["rate"] == h_norm
    assert solved["predicted_bounds_rev"] is None


def _masked(path: Path) -> str:
    """The report text with the manifest's timestamp and certificate hash
    masked."""
    text = path.read_text(encoding="utf-8")
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
    return re.sub(r'"cert": "[0-9a-f]{64}"', '"cert": ""', text)


def test_solve_derives_the_two_step_rate_whatever_the_file_says(tmp_path, capsys):
    # the solve reads the coefficient and derives h and its norm: a file with
    # h and h_norm nulled, or h_norm forged to 0.01, solves as the one certify
    # wrote, at rate ||h|| = 1/2
    cert = tmp_path / "cert.json"
    payload = _two_step_cert(cert)
    nulled = json.loads(json.dumps(payload))
    nulled["report"]["h"] = nulled["report"]["h_norm"] = None
    forged = json.loads(json.dumps(payload))
    forged["report"]["h_norm"] = 0.01
    runs = []
    for name, content in [("as-written", None), ("nulled", nulled), ("forged", forged)]:
        path = cert if content is None else tmp_path / f"{name}.json"
        if content is not None:
            path.write_text(json.dumps(content), encoding="utf-8")
        report = tmp_path / f"solve-{name}.json"
        capsys.readouterr()
        code = main(["solve", "--map", "linear-quarter",
                     "--metric", "scalar-backward-one", "--seed", "1",
                     "--cert", str(path), "--report", str(report)])
        runs.append((code, capsys.readouterr(), _masked(report)))
    assert runs[0][0] == 0 and runs[0][1].err == ""
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert json.loads(runs[0][2])["report"]["rate"] == 0.4999999999999999


@pytest.mark.parametrize("certify, solve, a, message", [
    (None, "scalar-backward-one", {"realization": "scalar", "value": -0.4},
     "two-step coefficient must be positive"),
    (None, "scalar-backward-one", {"realization": "scalar", "value": 0.6},
     "two-step coefficient operator norm 0.600000 exceeds 1/2"),
    (_HALF_IDENTITY_CHECK, "mat2-split",
     {"realization": "mat2", "entries": [[0.8, 0], [0, 0.8]]},
     "coefficient norm 1.131371 is not below 1"),
    # a coefficient outside the metric's codomain, or on another grid
    (_ORBITAL_CHECK, "mat2-split", {"realization": "scalar", "value": 0.1},
     "cannot combine 'scalar' with 'mat2'"),
    (_PERIODIC_CHECK, "periodic-fn",
     {"realization": "sampled", "grid": [0.0, 0.5], "values": [0.1, 0.1]},
     "sampled elements live on different grids"),
], ids=["two-step-negative", "two-step-above-half", "forward-norm-one",
        "orbital-scalar-for-mat2", "orbital-another-grid"])
def test_solve_refuses_a_coefficient_that_fails_its_gate(tmp_path, capsys, certify,
                                                         solve, a, message):
    # a coefficient edited in the file is gated as certify gates it
    cert = tmp_path / "cert.json"
    if certify is None:
        payload = _two_step_cert(cert)
    else:
        assert main([*certify, "--out", str(cert)]) == 0
        payload = _load(cert)
    payload["report"]["a"] = a
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    code = main(["solve", "--map", "linear-quarter", "--metric", solve,
                 "--seed", "3", "--cert", str(cert)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


_FORWARD_SEARCH = ["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                   "--regime", "forward", "--search", "--grid", "lin:-2:2:9"]
_QUARTER_SPLIT_SOLVE = ["solve", "--map", "linear-quarter", "--metric", "mat2-split",
                        "--seed", "3"]
#: A finite map whose orbit from 1.0 steps down by 10 and then by 1/0.1,
#: and from 2.0 steps by 0.01 and then by 199.
_DROP_TABLE = {"1": 0.1, "0.1": 0, "0": 0, "2": 1.99, "1.99": 0}


def _forged_forward(cert: Path) -> None:
    assert main([*_FORWARD_SEARCH, "--out", str(cert)]) == 0
    payload = _load(cert)
    payload["report"]["a"]["entries"] = [[0.01, 0.0], [0.0, 0.01]]
    cert.write_text(json.dumps(payload), encoding="utf-8")


def _nearly_true_forward(cert: Path) -> None:
    # c^2 = 1/4 - 1e-10 on x / 4: every walked sample passes within its
    # relative tolerance, but from seed 100 the tail exceeds the envelope
    # by more than the absolute tol
    assert main([*_FORWARD_SEARCH, "--out", str(cert)]) == 0
    payload = _load(cert)
    c = math.sqrt(0.25 - 1e-10)
    payload["report"]["a"]["entries"] = [[c, 0.0], [0.0, c]]
    cert.write_text(json.dumps(payload), encoding="utf-8")


def _zero_forward(cert: Path) -> None:
    # the zero coefficient that certify refuses at --tol 100 (see
    # test_certify_refuses_a_check_only_the_tolerance_passes), put in a file
    assert main([*_FORWARD_SEARCH, "--out", str(cert)]) == 0
    payload = _load(cert)
    payload["report"]["a"]["entries"] = [[0.0, 0.0], [0.0, 0.0]]
    cert.write_text(json.dumps(payload), encoding="utf-8")


def _table_orbital(cert: Path) -> list[str]:
    table = cert.with_name("table.json")
    table.write_text(json.dumps(_DROP_TABLE), encoding="utf-8")
    assert main(["certify", "--map", f"table:{table}", "--metric", "mat2-split",
                 "--regime", "orbital", "--search", "--seed", "1.0",
                 "--out", str(cert)]) == 0
    return ["solve", "--map", f"table:{table}", "--metric", "mat2-split", "--seed", "2"]


@pytest.mark.parametrize("make, solve, failing", [
    (_forged_forward, _QUARTER_SPLIT_SOLVE, "15 of 17"),
    (_two_step_cert, ["solve", "--map", "linear-quarter", "--metric",
                      "scalar-backward-one", "--seed", "-3"], "538 of 540"),
    (_table_orbital, None, "1 of 3"),
    (_zero_forward, _QUARTER_SPLIT_SOLVE, "15 of 17"),
    (_nearly_true_forward, [*_QUARTER_SPLIT_SOLVE[:-1], "100"], None),
], ids=["forward-a-edited-to-0.01", "two-step-from-another-seed",
        "orbital-table-from-another-seed", "forward-a-edited-to-zero",
        "forward-a-a-hair-low-from-100"])
def test_solve_does_not_certify_steps_its_coefficient_fails(tmp_path, capsys, make,
                                                            solve, failing):
    # each certificate passes its gates, and each solve converges, but a
    # walked step breaks the certificate's inequality, or the tail breaks
    # the envelope it rests on: the solve exits 1
    cert = tmp_path / "cert.json"
    made = make(cert)
    solve = solve or made  # the table case names its table file in the argv
    capsys.readouterr()
    assert main([*solve, "--cert", str(cert)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "(converged: True)" in out[0]
    walked = [f"walked samples failing the certificate: {failing}"] if failing else []
    assert out[2:] == [*walked, "bound envelope ok: False; certified: False"]


def test_certify_refuses_a_check_only_the_tolerance_passes(tmp_path, capsys):
    # a = 0 passes every sample of x / 4 only within --tol 100: each of the
    # 72 moving samples fails at tolerance 0, so certify writes nothing and
    # exits 1 with one error line
    cert = tmp_path / "cert.json"
    code = main([*_FORWARD_SEARCH[:-3], "--grid", "lin:-2:2:9", "--tol", "100",
                 "--a", '{"realization": "mat2", "entries": [[0, 0], [0, 0]]}',
                 "--out", str(cert)])
    assert code == 1 and not cert.exists()
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: all 72 moving samples fail at tolerance 0 "
                                 "and pass only within tolerance 100.0\n")


def test_solve_refuses_a_reverse_step_that_overflows(tmp_path, capsys):
    # under beta = 1e300 the forward steps of x / 4 from 1e9 are finite, but
    # the first reverse step d(x_1, x_0) scales 7.5e8 by beta: the orbital
    # solve, which stops on the forward order, exits 1 with one error line
    cert = tmp_path / "cert.json"
    metric = ["--map", "linear-quarter", "--metric", "mat2-split-scaled", "--beta", "1e300"]
    assert main(["certify", *metric, "--regime", "orbital", "--seed", "1.0",
                 "--a", '{"realization": "mat2", "entries": [[0.6, 0], [0, 0.6]]}',
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["solve", *metric, "--seed", "1e9", "--cert", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: distance overflows: the points are too far apart\n"


@pytest.mark.parametrize("metric", ["mat2-split", "mat2-split-scaled"])
@pytest.mark.parametrize("samples", [["--regime", "forward", "--grid", "lin:-2:2:9"],
                                     ["--regime", "orbital", "--seed", "1.0"]],
                         ids=["forward", "orbital"])
def test_the_searched_quarter_coefficient_is_at_least_one_half(tmp_path, capsys, metric,
                                                               samples):
    # x/4 shrinks every step by exactly 1/4 = c^2: the order tolerance must
    # not lower c below 1/2, and the solve from another seed then certifies
    # with its envelope holding
    cert = tmp_path / "cert.json"
    assert main(["certify", "--map", "linear-quarter", "--metric", metric, *samples,
                 "--search", "--out", str(cert)]) == 0
    assert _load(cert)["report"]["a"]["entries"][0][0] >= 0.5
    capsys.readouterr()
    assert main(["solve", "--map", "linear-quarter", "--metric", metric,
                 "--seed", "3.7", "--cert", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "bound envelope ok: True; certified: True")


def test_solve_refuses_a_certificate_of_no_sample(tmp_path, capsys):
    # the zero coefficient that an empty grid once certified for any map,
    # as certify wrote it: no violation, and no sample
    cert = tmp_path / "cert.json"
    assert main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--regime", "forward", "--search", "--grid", "1",
                 "--out", str(cert)]) == 0
    payload = _load(cert)
    assert payload["report"]["a_norm"] == 0.0
    payload["report"]["samples_checked"] = 0
    cert.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    code = main(["solve", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--seed", "3", "--cert", str(cert)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: certificate checked no samples\n"


#: A certify run whose report records every option that fixes the map and
#: the metric, each at a value of its own.
_CERTIFIED_RUN = ["--map", "linear-quarter", "--metric", "mat2-split-scaled",
                  "--beta", "0.25", "--period", "1.5", "--t-grid", "16",
                  "--norm", "operator", "--order", "entrywise"]


@pytest.mark.parametrize("option, value, message", [
    ("--map", "piecewise-quarter", "--map linear-quarter, not piecewise-quarter"),
    ("--metric", "mat2-split", "--metric mat2-split-scaled, not mat2-split"),
    ("--beta", "0.5", "--beta 0.25, not 0.5"),
    ("--period", "2", "--period 1.5, not 2.0"),
    ("--t-grid", "32", "--t-grid 16, not 32"),
    ("--norm", "entry-sum-squares", "--norm operator, not entry-sum-squares"),
    ("--order", "cone", "--order entrywise, not cone"),
    ("--norm", None, "--norm operator, not None"),
], ids=lambda v: str(v))
def test_solve_refuses_a_certificate_of_another_run(tmp_path, capsys, option, value,
                                                    message):
    # the certificate is for the map and metric its certify run built; a solve
    # that builds another of either is refused, naming the option that differs
    cert = tmp_path / "cert.json"
    assert main(["certify", *_CERTIFIED_RUN, "--regime", "orbital",
                 "--a", '{"realization": "mat2", "entries": [[0.6, 0], [0, 0.6]]}',
                 "--out", str(cert)]) == 0
    solve = ["solve", *_CERTIFIED_RUN, "--seed", "3", "--cert", str(cert)]
    capsys.readouterr()
    assert main(solve) == 0
    capsys.readouterr()
    at = solve.index(option)
    solve[at:at + 2] = [] if value is None else [option, value]
    assert main(solve) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cert} was certified with {message}\n"


def test_solve_refuses_a_certificate_of_another_map_table(tmp_path, capsys):
    # the same table path with other content is another map
    table, cert = tmp_path / "table.json", tmp_path / "cert.json"
    table.write_text(json.dumps({x: 0.0 for x in (0.0, 1.0, 2.0)}), encoding="utf-8")
    certify = [*_HALF_IDENTITY_CHECK, "--grid", "0,1,2", "--map", f"table:{table}"]
    assert main([*certify, "--out", str(cert)]) == 0
    solve = ["solve", "--map", f"table:{table}", "--metric", "mat2-split",
             "--seed", "2", "--cert", str(cert)]
    capsys.readouterr()
    assert main(solve) == 0
    table.write_text(json.dumps({0.0: 0.0, 1.0: 0.0, 2.0: 1.0}), encoding="utf-8")
    capsys.readouterr()
    assert main(solve) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cert} certifies another table than --map table:{table}\n"


def test_solve_refuses_a_bare_report(tmp_path, capsys):
    # a report with no manifest records no run to compare with
    cert = tmp_path / "cert.json"
    assert main([*_HALF_IDENTITY_CHECK, "--out", str(cert)]) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_load(cert)["report"]), encoding="utf-8")
    capsys.readouterr()
    code = main(["solve", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--seed", "3", "--cert", str(bare)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bare} holds no run manifest: solve reads certify reports\n"


def test_check_axioms_keeps_the_vacuous_pass_of_an_empty_grid(capsys):
    assert main(["check-axioms", "--metric", "mat2-split", "--grid", "0"]) == 0
    assert capsys.readouterr().out.startswith("metric mat2-split: 0 pairs, 0 triples")


@pytest.mark.parametrize("mode", [
    ["--a", '{"realization": "scalar", "value": 0.5}'], ["--search"]])
def test_certify_rejects_orbits_shorter_than_two_steps(mode, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--map", "linear-quarter",
              "--metric", "scalar-backward-one", "--regime", "orbital",
              "--orbit-len", "1", *mode])
    assert exc.value.code == 2
    assert "--orbit-len" in capsys.readouterr().err


def test_solve_rejects_zero_iterations(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", "linear-quarter", "--metric", "mat2-split",
              "--seed", "1", "--cert", "unused.json", "--max-iter", "0"])
    assert exc.value.code == 2
    assert "--max-iter" in capsys.readouterr().err


def test_certify_on_an_overflowing_grid_is_a_domain_error(capsys):
    code = main(["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--regime", "forward", "--grid", "1e308,-1e308,0", "--a",
                 '{"realization": "mat2", "entries": [[0.5, 0], [0, 0.5]]}'])
    assert code == 1
    assert "error: distance overflows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--map", "linear-quarter", "--metric", "mat2-split",
     "--seed", "1", "--cert", "unused.json"],
    ["demo-integral", "--grid", "64"],
], ids=["solve", "demo-integral"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_solver_subcommands_reject_a_non_positive_tolerance(argv, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# --- the report writer ------------------------------------------------------------

_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\[]{},: \n\t\x00\u2028é€😀')),
                max_size=6)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    # a small pool repeats floats within a tree, zeros of both signs too
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.1, -2.5]),
    st.floats().map(np.float64), _TEXT)
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def _json_trees(leaves: st.SearchStrategy) -> st.SearchStrategy:
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3)), max_leaves=16)


#: What json.dumps refuses: values and keys it cannot encode, or keys of
#: types that do not sort together.
_REFUSED = st.sampled_from([object(), {1, 2}, b"bytes", 1j, np.int64(3),
                            np.array([1.0]), {(1, 2): 0}, {"a": 0, 1: 0}])


def _dumps_outcome(write, tree):
    try:
        return write(tree)
    except Exception as exc:
        return type(exc)


class _Key(str):
    """A ``str`` subclass: the writer gives its keys to json's own key rule."""


@settings(max_examples=examples(200), deadline=None)
@example([0.0, -0.0, {"x": -0.0, "y": 0.0}, (1.5, 1.5, math.nan, math.nan)])
# keys of every kind json takes, and a refused key beside them
@example({1: 0.5, -3: "x", 2 ** 200: None})
@example({math.nan: 1.0, math.inf: 2.0, -math.inf: [3.0], -0.0: 4.0})
@example([{True: 1.0, False: 2.0}, {None: 0.5}, {_Key("k\u00e9"): 1.0, "j": 2.0}])
@example({"valid": {1: 2.0, 2.5: 0.5}, "refused": {(1, 2): 0.5}})
@given(st.one_of(_json_trees(_LEAVES), _json_trees(st.one_of(_LEAVES, _REFUSED))))
def test_the_report_writer_writes_what_json_dumps_writes(tree):
    expected = _dumps_outcome(lambda t: json.dumps(t, sort_keys=True, indent=2), tree)
    assert _dumps_outcome(_json_text, tree) == expected


#: How a row of a list of flat dicts can stop fitting the row writer, each
#: applied to one drawn row; None leaves every row fitting.
_MISFITS = [None, "missing key", "extra key", "non-str key", "nested value",
            "np.float64", "int, bool or None", "not a dict"]
#: Row values: NaN as one shared object and as objects of their own.
_ROW_VALUES = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1]),
    st.builds(float, st.just("nan")), _TEXT)
_ROW_KEYS = st.one_of(_TEXT, st.sampled_from(["%", "%s", "%(x)s", "100%", "x"]))


@st.composite
def _row_lists(draw):
    keys = draw(st.lists(_ROW_KEYS, min_size=1, max_size=4, unique=True))
    # up to 100 rows; each column draws from a pool of a few values, which
    # then repeat as grid points do (0.0 and -0.0 among them) and take the
    # writer's table of distinct texts, or draws every value afresh
    count = draw(st.integers(1, 100))
    columns = []
    for _ in keys:
        if draw(st.booleans()):
            pool = draw(st.lists(_ROW_VALUES, min_size=1, max_size=3))
            values = st.sampled_from(pool)
        else:
            values = _ROW_VALUES
        columns.append(draw(st.lists(values, min_size=count, max_size=count)))
    rows = [dict(zip(keys, row)) for row in zip(*columns)]
    misfit = draw(st.sampled_from(_MISFITS))
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(keys))
    if misfit == "missing key":
        del row[key]
    elif misfit == "extra key":
        row[draw(_TEXT.filter(lambda k: k not in keys))] = draw(_ROW_VALUES)
    elif misfit == "non-str key":  # in place of a str key, or besides them
        if draw(st.booleans()):
            del row[key]
        row[draw(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()))] = 0.5
    elif misfit == "nested value":
        row[key] = draw(st.sampled_from([[row[key]], {"k": row[key]}, (), {}]))
    elif misfit == "np.float64":
        row[key] = np.float64(draw(st.floats()))
    elif misfit == "int, bool or None":
        row[key] = draw(st.sampled_from([0, 1, True, None]))
    elif misfit == "not a dict":
        rows[rows.index(row)] = draw(st.sampled_from([[], 0.5, "row", None]))
    # the rows at the depths a report puts them
    return draw(st.sampled_from([rows, {"violations": rows}, [{"report": {"v": rows}}]]))


@settings(max_examples=examples(200), deadline=None)
@example([{"x": 0.0, "y": -0.0}, {"x": -0.0, "y": 0.0}])
@example([{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": 2.0, "z": 3.0}])
@example([{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": [2.0]}])
# columns of few values, as grid points are: zeros of both signs, and NaN as
# one object and as objects of their own
@example([{"x": x, "y%s": y} for x, y in zip([0.0, -0.0, 1.5, 0.0] * 20,
                                             [math.nan, float("nan"), 2.0] * 27)])
@given(_row_lists())
def test_the_report_writer_writes_rows_as_json_dumps_does(rows):
    expected = _dumps_outcome(lambda t: json.dumps(t, sort_keys=True, indent=2), rows)
    assert _dumps_outcome(_json_text, rows) == expected


def test_the_report_writer_refuses_circular_containers():
    loop: list = [1.0]
    loop.append({"again": loop})
    for write in (lambda t: json.dumps(t, sort_keys=True, indent=2), _json_text):
        with pytest.raises(ValueError, match="Circular reference"):
            write(loop)


def test_unwritten_reports_are_not_serialized(tmp_path, monkeypatch, capsys):
    # an object json cannot encode shows whether the report was serialized:
    # a run without --report writes nothing, so it never meets the object
    from quasifix.convergence import ConvergenceVerdict

    monkeypatch.setattr(ConvergenceVerdict, "to_json_dict",
                        lambda self: {"unserializable": object()})
    assert main(_CLASSIFY) == 0
    with pytest.raises(TypeError, match="not JSON serializable"):
        main([*_CLASSIFY, "--report", str(tmp_path / "unused.json")])


# --- demo-integral ----------------------------------------------------------------

def test_demo_integral_contractive(tmp_path, capsys):
    report = tmp_path / "demo.json"
    solution = tmp_path / "fstar.csv"
    code = main(["demo-integral", "--alpha", "0.5", "--k", "4",
                 "--grid", "512", "--tol", "1e-8",
                 "--report", str(report), "--solution", str(solution)])
    assert code == 0
    payload = _load(report)["report"]
    assert payload["regime"] == "contractive"
    assert payload["equation_residual"] <= 1e-8
    lines = solution.read_text().strip().splitlines()
    assert lines[0] == "x,f_star"
    assert len(lines) == 513


@pytest.mark.parametrize("alpha", ["1e-300", "1e-308", "5e-324"])
def test_demo_integral_at_a_tiny_alpha_keeps_its_growth_threshold(
        alpha, tmp_path, capsys):
    # growth (alpha/2) ln(1 + 1/k) reaches 1 only at k = 1/expm1(2/alpha),
    # which is below every float; expm1 overflows, and at 5e-324 so does
    # 2/alpha
    report = tmp_path / "demo.json"
    code = main(["demo-integral", "--alpha", alpha, "--grid", "64",
                 "--report", str(report)])
    assert code == 0
    assert _load(report)["report"]["growth_threshold_k"] == 0.0
    assert "Traceback" not in capsys.readouterr().err


def test_demo_integral_classifies_once(monkeypatch, capsys):
    # the CLI prints the regime before it solves, and the solve completes
    # that same report instead of classifying again
    from quasifix import integral

    reports = []
    classify = integral.regime_report
    monkeypatch.setattr(integral, "regime_report",
                        lambda prob: reports.append(classify(prob)) or reports[-1])
    assert main(["demo-integral", "--grid", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(reports) == 1
    assert [line.split(" ")[0] for line in out] == ["rate", "solver:", "equation"]


def test_demo_integral_inconsistent_parameters(capsys):
    code = main(["demo-integral", "--alpha", "2", "--k", "0.3",
                 "--grid", "256"])
    assert code == 1
    assert "not-contractive" in capsys.readouterr().out


# --- gallery ------------------------------------------------------------------------

def test_gallery_passes_with_documented_xfails(capsys):
    code = main(["gallery"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    xfails = [line for line in lines if line.startswith("XFAIL")]
    assert len(xfails) == 2
    assert any("sandwich-coefficient-consistency" in line for line in xfails)
    assert any("integral-growth-vs-contraction" in line for line in xfails)
    assert not any(line.startswith("FAIL") or line.startswith("XPASS")
                   for line in lines)


#: The gallery's stdout, line for line: a change in the last printed digit of
#: a search result, a norm or a solve shows up here.
GALLERY_LINES = [
    "PASS  split-matrix-axioms — matrix-split metric satisfies all axioms on a "
    "41-point grid and distinguishes d(1,2) from d(2,1) (68921 triples, 0 "
    "triangle violations, d(1,2) != d(2,1): True)",
    "PASS  periodic-function-axioms — periodic-function metric satisfies all "
    "axioms; d(T/2,0) and d(0,T/2) have the published sample shapes and "
    "different norms (9261 triples clean, sampled halves match, sup-norm "
    "asymmetry gap 0.0078)",
    "PASS  forward-only-convergence — x_n = x(1 + 1/n) forward-converges to x "
    "while every backward distance equals 1 (forward converges, backward "
    "diverges, backward distances all 1: True)",
    "PASS  quarter-map-sandwich-equality — x/4 under the beta=1/4 split metric "
    "meets the sandwich bound with equality at coefficient I/2; the minimal "
    "scalar is 1/2 (half-identity certificate valid, minimal scalar "
    "0.5000000000001451)",
    "XFAIL sandwich-coefficient-consistency — the two published coefficient "
    "displays for the quarter-map sandwich agree with each other (stated "
    "diagonal 0.577350 vs displayed 0.500000) [documented inconsistency: the "
    "stated coefficient is diag(1/sqrt(3)) but the displayed factors are "
    "diag(1/2)]",
    "PASS  backward-one-quarter-orbital — under the backward-one metric x/4 "
    "admits no forward-global scalar certificate below norm 1, yet the "
    "orbital certificate at 1/sqrt(2) holds and 0 is certified as the fixed "
    "point (no global scalar certificate: True; orbital 1/sqrt(2) valid; "
    "limit 1.455e-11 certified via lower semicontinuity)",
    "PASS  diag-matrix-piecewise-orbital — piecewise quarter map under the "
    "matrix-split metric certifies orbitally at diag(1/sqrt(3)) in the "
    "defining argument order (defining argument order certifies; flipped "
    "base order fails as expected: True)",
    "PASS  integral-closed-forms — quadrature reproduces both kernel integrals "
    "to 1e-6; the contractive demo at alpha=0.5, k=4 solves the discrete "
    "equation (max quadrature error 8.95e-09, rate 0.115912, equation "
    "residual 8.86e-11)",
    "XFAIL integral-growth-vs-contraction — some parameter pair grows the "
    "identity seed while keeping the contraction rate below 1 (no (alpha, k) "
    "satisfies both demands on a 80x120 scan) [documented inconsistency: the "
    "growth demand forces the rate above 1 for every parameter pair]",
]


def test_gallery_lines_are_pinned():
    lines: list[str] = []
    assert run_gallery(lines.append) == 0
    assert lines == GALLERY_LINES


# --- usage and output routing ----------------------------------------------------

def test_main_calls_in_a_row_share_no_parser_state(tmp_path, capsys):
    # one parser serves every call: what a call parses, and what it fails to
    # parse, must not reach the next one
    assert _make_parser() is _make_parser()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check-axioms", "--metric", "mat2-split", "--grid", "5",
                 "--tol", "0.5", "--seed-rng", "3", "--report", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--metric", "mat2-split", "--regime", "forward"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check-axioms", "--metric", "mat2-split", "--tol", "-1"])
    assert exc.value.code == 2
    assert main(["classify", "--metric", "scalar-forward-one",
                 "--seq", "harmonic:1:50", "--candidate", "1", "--eps", "0.1",
                 "--window", "5"]) == 0
    assert main(["check-axioms", "--metric", "scalar-forward-one",
                 "--report", str(second)]) == 0
    capsys.readouterr()
    metric_defaults = {"beta": 0.25, "period": 1.0, "t_grid": 64,
                       "norm": None, "order": None}
    assert _load(first)["manifest"]["config"] == {
        "metric": "mat2-split", "grid": "5", "tol": 0.5, "seed_rng": 3,
        **metric_defaults}
    assert _load(second)["manifest"]["config"] == {
        "metric": "scalar-forward-one", "grid": "41", "tol": 1e-9, "seed_rng": 0,
        **metric_defaults}
    args = _make_parser().parse_args(["gallery"])
    assert sorted(vars(args)) == ["command", "func"]


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--metric", "mat2-split"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_out_dir_env_routes_relative_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("QUASIFIX_OUT_DIR", str(tmp_path))
    code = main(["check-axioms", "--metric", "mat2-split", "--grid", "5",
                 "--report", "nested/axioms.json"])
    assert code == 0
    assert (tmp_path / "nested" / "axioms.json").exists()


# --- the parser as the one description of a run ----------------------------------

_CERTIFY = ["certify", "--map", "linear-quarter", "--metric", "mat2-split",
            "--regime", "forward", "--search", "--grid", "lin:-2:2:5"]
_CLASSIFY = ["classify", "--metric", "scalar-forward-one", "--seq", "1,2,3",
             "--candidate", "1", "--eps", "0.1", "--window", "2"]
_DEMO = ["demo-integral", "--grid", "64"]


def _usage_error(argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    [*_CLASSIFY, "--tol", "1e-9"],
    [*_CLASSIFY, "--seed-rng", "1"],
    ["solve", "--map", "linear-quarter", "--metric", "mat2-split", "--seed", "1",
     "--cert", "unused.json", "--seed-rng", "1"],
    [*_DEMO, "--norm", "operator"],
    [*_DEMO, "--order", "entrywise"],
    [*_DEMO, "--seed-rng", "1"],
    ["gallery", "--tol", "1e-9"],
    ["gallery", "--norm", "operator"],
    ["gallery", "--order", "entrywise"],
    ["gallery", "--seed-rng", "1"],
    ["gallery", "--out-dir", "out"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_options_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    assert "unrecognized arguments" in _usage_error(argv, capsys)


@pytest.mark.parametrize("argv, option", [
    *[([*_CLASSIFY[:-4], "--window", "2", "--eps", v], "--eps")
      for v in ("0", "-1", "nan")],
    *[([*_CLASSIFY[:-2], "--window", v], "--window") for v in ("0", "-1")],
    *[(["check-axioms", "--metric", "periodic-fn", "--period", v], "--period")
      for v in ("0", "-1", "nan")],
    (["check-axioms", "--metric", "periodic-fn", "--t-grid", "1"], "--t-grid"),
    (["check-axioms", "--metric", "mat2-split-scaled", "--beta", "nan"], "--beta"),
    ([*_DEMO, "--alpha", "0"], "--alpha"),
    ([*_DEMO, "--k", "0"], "--k"),
    (["demo-integral", "--grid", "1"], "--grid"),
    (["check-axioms", "--metric", "mat2-split", "--grid", "lin:-2:2:5",
      "--seed-rng", "-1"], "--seed-rng"),
    ([*_CERTIFY, "--seed-rng", "-1"], "--seed-rng"),
    # a certificate of no sample would certify any map
    *[([*_CERTIFY, f"--grid={v}"], "--grid") for v in ("0", "random:0", "lin:-2:2:0")],
    *[(["check-axioms", "--metric", "mat2-split", f"--grid={v}"], "--grid")
      for v in ("lin:-2:2", "lin:0:1:x", "lin:-2:2:-1", "-3", "random:x",
                "random:5:2:1", "random:5:0:inf")],
    *[([*_CLASSIFY[:3], "--seq", v, *_CLASSIFY[5:]], "--seq")
      for v in ("harmonic:1:x", "geom:1:0.5:x", "1,2,abc", "geom:1:1e300:5")],
    *[([*_CERTIFY[:7], "--a", v], "--a")
      for v in ("notjson", '{"realization": "mat2"}', "[0.5]")],
    ([*_CERTIFY[:1], "--map", "no-such-map", *_CERTIFY[3:]], "--map"),
], ids=lambda v: v[-1] if isinstance(v, list) else v)
def test_bad_values_are_usage_errors_that_name_their_option(argv, option, capsys):
    assert f"argument {option}" in _usage_error(argv, capsys)


def _single_usage_error(argv: list[str], capsys) -> str:
    """The usage error of ``argv``, raised with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _usage_error(argv, capsys)
    assert sum("error:" in line for line in err.splitlines()) == 1
    return err


_PERIODIC_OPTS = ["--metric", "periodic-fn", "--period"]


@pytest.mark.parametrize("argv", [
    [*_PERIODIC_OPTS, "1e-322", "--t-grid", "64"],
    [*_PERIODIC_OPTS, "5e-324", "--t-grid", "2"],
], ids=["1e-322:64", "5e-324:2"])
@pytest.mark.parametrize("command", [
    ["check-axioms"],
    ["certify", "--map", "linear-quarter", "--regime", "forward", "--search"],
    ["classify", "--seq", "1,2", "--candidate", "1", "--eps", "0.1", "--window", "1"],
    ["solve", "--map", "linear-quarter", "--seed", "1", "--cert", "unused.json"],
], ids=lambda command: command[0])
def test_a_period_too_small_for_its_t_grid_is_a_usage_error(command, argv, capsys):
    # the t-grid's spacing period / t-grid rounds to 0, so its points collapse
    assert "argument --period/--t-grid" in _single_usage_error([*command, *argv], capsys)


@pytest.mark.parametrize("grid", ["lin:-inf:1:15", "lin:-1e308:1e308:15", "lin:nan:1:3",
                                  "random:5:-1e308:1e308", "random:5:-inf:0"])
@pytest.mark.parametrize("command", [
    ["check-axioms", "--metric", "mat2-split"],
    ["certify", "--map", "linear-quarter", "--metric", "mat2-split", "--regime", "forward",
     "--search"],
], ids=lambda command: command[0])
def test_grid_bounds_not_a_finite_distance_apart_are_usage_errors(command, grid, capsys):
    assert "argument --grid" in _single_usage_error([*command, "--grid", grid], capsys)


def test_a_demo_whose_monotone_walk_leaves_the_floats_exits_1_unwarned(tmp_path, capsys):
    # T^2 f0 is inf at alpha 1e300, and T^3 f0 NaN: the walk reads that as
    # not increasing, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["demo-integral", "--alpha", "1e300", "--k", "1", "--grid", "2",
                     "--report", str(tmp_path / "demo.json")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.endswith(", regime not-contractive\n") and out.count("\n") == 1
    assert err == ""
    report = _load(tmp_path / "demo.json")["report"]
    assert report["tf0_exceeds_f0"] is True and report["iterates_increasing"] is False


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in _make_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


#: The parsed names a manifest leaves out: the subcommand's plumbing, the
#: output paths, and the certificate, which it records by its hash.
_NOT_CONFIG = {"command", "func", "out_dir", "report", "out", "trace",
               "solution", "cert"}


def test_manifests_record_every_option_the_subcommand_accepts(tmp_path):
    cert = tmp_path / "cert.json"
    runs = {
        "check-axioms": ["check-axioms", "--metric", "mat2-split", "--grid", "5",
                         "--report"],
        "classify": [*_CLASSIFY, "--window", "1", "--report"],
        "certify": [*_CERTIFY, "--out"],
        "solve": ["solve", "--map", "linear-quarter", "--metric", "mat2-split",
                  "--seed", "1", "--cert", str(cert), "--report"],
        "demo-integral": [*_DEMO, "--report"],
    }
    main([*_CERTIFY, "--out", str(cert)])
    subcommands = _subcommands()
    assert set(subcommands) == {*runs, "gallery"}
    for name, argv in runs.items():
        report = tmp_path / f"{name}.json"
        assert main([*argv, str(report)]) == 0
        manifest = _load(report)["manifest"]
        dests = {a.dest for a in subcommands[name]._actions} - {"help"}
        assert set(manifest["config"]) == dests - _NOT_CONFIG, name
        assert ("cert" in manifest["input_hashes"]) == ("cert" in dests)


@pytest.mark.parametrize("argv, parser, option, text", [
    (["classify", "--metric", "scalar-forward-one", "--seq", "harmonic:1.5:40",
      "--candidate", "1.5", "--eps", "0.1", "--window", "5"],
     "_seq_points", "seq", "harmonic:1.5:40"),
    ([*_CERTIFY[:7], "--a", '{"realization": "mat2", "entries": [[0.5, 0], [0, 0.5]]}'],
     "element_from_json", "a", '{"realization": "mat2", "entries": [[0.5, 0], [0, 0.5]]}'),
    (["check-axioms", "--metric", "periodic-fn", "--grid", "random:41", "--seed-rng", "7"],
     "_grid_points", "grid", "random:41"),
    ([*_CERTIFY[:7], "--a", '{"realization": "mat2", "entries": [[0.5, 0], [0, 0.5]]}',
      "--grid", "random:7", "--seed-rng", "3"],
     "_grid_points", "grid", "random:7"),
], ids=["seq", "a", "check-axioms-grid", "certify-grid"])
def test_an_option_is_parsed_once_and_recorded_as_typed(tmp_path, monkeypatch, argv,
                                                         parser, option, text):
    # the argparse type parses the value, the command reads what it parsed,
    # and the manifest records the text as typed
    calls = []
    parse = getattr(cli, parser)
    monkeypatch.setattr(cli, parser, lambda *args: calls.append(args) or parse(*args))
    report = tmp_path / "report.json"
    assert main([*argv, "--out" if argv[0] == "certify" else "--report", str(report)]) == 0
    assert len(calls) == 1
    config = _load(report)["manifest"]["config"]
    assert config[option] == text and type(config[option]) is str


def test_the_seed_of_a_random_grid_reaches_the_config_hash(tmp_path):
    hashes = set()
    for seed in ("1", "2"):
        out = tmp_path / f"cert-{seed}.json"
        main([*_CERTIFY[:-1], "random:9", "--seed-rng", seed, "--out", str(out)])
        hashes.add(_load(out)["manifest"]["input_hashes"]["config"])
    assert len(hashes) == 2


# --- input files ----------------------------------------------------------------------

@pytest.mark.parametrize("content", [None, "not json",
                                     '{"report": {"regime": "forward-global"}}'],
                         ids=["missing", "not-json", "no-coefficient"])
def test_unreadable_certificates_are_errors(tmp_path, content, capsys):
    cert = tmp_path / "cert.json"
    if content is not None:
        cert.write_text(content, encoding="utf-8")
    code = main(["solve", "--map", "linear-quarter", "--metric", "mat2-split",
                 "--seed", "1", "--cert", str(cert)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cert) in err


@pytest.mark.parametrize("content", [None, '{"0.5": "x"}'], ids=["missing", "bad-point"])
def test_unreadable_map_tables_are_errors(tmp_path, content, capsys):
    table = tmp_path / "table.json"
    if content is not None:
        table.write_text(content, encoding="utf-8")
    code = main([*_CERTIFY[:2], f"table:{table}", *_CERTIFY[3:]])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_missing_sequence_file_is_an_error(tmp_path, capsys):
    code = main([*_CLASSIFY[:3], "--seq", f"@{tmp_path / 'missing.csv'}",
                 *_CLASSIFY[5:]])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_map_table_certifies_as_the_catalog_map_it_tabulates(tmp_path, capsys):
    table = tmp_path / "quarter.json"
    table.write_text(json.dumps({x: x / 4 for x in (0.0, 1.0, 2.0)}), encoding="utf-8")
    check = [*_HALF_IDENTITY_CHECK, "--grid", "0,1,2"]
    assert main(check) == 0
    catalog = capsys.readouterr().out
    assert main([*check, "--map", f"table:{table}"]) == 0
    assert capsys.readouterr().out == catalog


def test_a_sequence_file_classifies_as_the_inline_sequence(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("1.5\n1.25\n\n1.125\n", encoding="utf-8")
    argv = [*_CLASSIFY[:3], "--seq", "1.5,1.25,1.125", *_CLASSIFY[5:]]
    assert main(argv) == 0
    inline = capsys.readouterr().out
    argv[4] = f"@{seq}"
    assert main(argv) == 0
    assert capsys.readouterr().out == inline


@pytest.mark.parametrize("kind", ["map", "seq"])
def test_manifests_hash_the_content_of_map_and_sequence_files(tmp_path, kind):
    # the same path with different contents: the config hash stays, the
    # file's hash moves
    path = tmp_path / ("table.json" if kind == "map" else "seq.csv")
    if kind == "map":
        argv = [*_HALF_IDENTITY_CHECK, "--grid", "0,1,2", "--map", f"table:{path}",
                "--out"]
        contents = [json.dumps({x: x * r for x in (0.0, 1.0, 2.0)})
                    for r in (0.25, 0.3)]
    else:
        argv = [*_CLASSIFY[:3], "--seq", f"@{path}", *_CLASSIFY[5:], "--report"]
        contents = ["1.5\n1.25\n1.125\n", "1.5\n1.25\n1.0625\n"]
    manifests = []
    for i, content in enumerate(contents):
        path.write_text(content, encoding="utf-8")
        report = tmp_path / f"report-{i}.json"
        main([*argv, str(report)])
        manifests.append(_load(report)["manifest"]["input_hashes"])
    first, second = manifests
    assert first["config"] == second["config"]
    assert first[kind] != second[kind]
    assert first[kind] == hashlib.sha256(contents[0].encode()).hexdigest()


def test_every_input_file_is_read_once_and_hashed_as_read(tmp_path, monkeypatch):
    # the manifest hashes the bytes the run parsed: each input file is opened
    # once, and its hash is that of its bytes
    import builtins
    import io

    table, cert, seq = tmp_path / "table.json", tmp_path / "cert.json", tmp_path / "seq.csv"
    table.write_text(json.dumps({x: 0.0 for x in (0.0, 1.0, 2.0)}), encoding="utf-8")
    seq.write_bytes(b"1.5\r\n1.25\r\n1.125\r\n")
    assert main([*_HALF_IDENTITY_CHECK, "--grid", "0,1,2", "--map", f"table:{table}",
                 "--out", str(cert)]) == 0
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    runs = [
        (["solve", "--map", f"table:{table}", "--metric", "mat2-split", "--seed", "2",
          "--cert", str(cert)], {"map": table, "cert": cert}),
        ([*_CLASSIFY[:3], "--seq", f"@{seq}", *_CLASSIFY[5:]], {"seq": seq}),
    ]
    for i, (argv, files) in enumerate(runs):
        report = tmp_path / f"report-{i}.json"
        opened.clear()
        assert main([*argv, "--report", str(report)]) == 0
        assert sorted(map(str, opened)) == sorted(map(str, [*files.values(), report]))
        hashes = _load(report)["manifest"]["input_hashes"]
        assert set(hashes) == {"config", *files}
        for key, path in files.items():
            assert hashes[key] == hashlib.sha256(path.read_bytes()).hexdigest()


#: Each output option of each subcommand, after a run that exits 0; a
#: {cert} argument is a certificate that the test writes first.
_OUTPUTS = [
    (["check-axioms", "--metric", "mat2-split", "--grid", "5"], "--report"),
    (_CLASSIFY, "--report"),
    (_CLASSIFY, "--trace"),
    (_CERTIFY, "--out"),
    *[(["solve", "--map", "linear-quarter", "--metric", "mat2-split", "--seed", "1",
        "--cert", "{cert}"], option) for option in ("--report", "--trace")],
    (_DEMO, "--report"),
    (_DEMO, "--solution"),
]


def _with_cert(argv: list[str], tmp_path: Path) -> list[str]:
    cert = tmp_path / "cert.json"
    if "{cert}" in argv and not cert.exists():
        assert main([*_CERTIFY, "--out", str(cert)]) == 0
    return [str(cert) if a == "{cert}" else a for a in argv]


@pytest.mark.parametrize("argv, option", _OUTPUTS, ids=lambda v: v if isinstance(v, str)
                         else v[0])
def test_outputs_go_into_directories_that_do_not_exist_yet(tmp_path, capsys, argv,
                                                           option):
    target = tmp_path / "new" / "deeper" / "out.txt"
    assert main([*_with_cert(argv, tmp_path), option, str(target)]) == 0
    assert target.read_text(encoding="utf-8")
    relative = Path("nested") / "out.txt"
    assert main([*_with_cert(argv, tmp_path), option, str(relative),
                 "--out-dir", str(tmp_path / "base")]) == 0
    assert (tmp_path / "base" / relative).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, option", _OUTPUTS, ids=lambda v: v if isinstance(v, str)
                         else v[0])
def test_an_output_that_cannot_be_written_is_an_error(tmp_path, capsys, argv, option):
    # a path under a regular file: its directory cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = _with_cert(argv, tmp_path)
    capsys.readouterr()
    assert main([*argv, option, str(blocker / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker / 'out.txt'}: ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == ""


def test_every_error_class_of_the_package_derives_from_one_base():
    # main catches QuasifixError alone, so every error class a module of the
    # package defines must be one
    import importlib
    import inspect
    import pkgutil

    import quasifix
    from quasifix import QuasifixError

    found = set()
    for info in pkgutil.iter_modules(quasifix.__path__):
        module = importlib.import_module(f"quasifix.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.add(cls)
    assert len(found) >= 16
    assert all(issubclass(cls, QuasifixError) for cls in found), \
        sorted(cls.__name__ for cls in found if not issubclass(cls, QuasifixError))


# --- a grammar fuzz of the command line -----------------------------------------

#: Option values at the edges of the floats.
_EDGES = st.sampled_from(["0", "-0", "1e-300", "-1e-300", "1e300", "-1e300", "1.7e308",
                          "nan", "inf", "-inf", "5e-324", "-5e-324"])


def _values(*plain: str) -> st.SearchStrategy:
    """A plain value two times in three, else an edge value."""
    return st.one_of(st.sampled_from(plain), st.sampled_from(plain), _EDGES)


def _option(name: str, values: st.SearchStrategy, required: bool = False) -> st.SearchStrategy:
    """The option ``name`` with a drawn value, or, unless ``required``, no option."""
    with_value = values.map(lambda v: [f"--{name}={v}"])
    return with_value if required else st.one_of(st.just([]), with_value)


def _argv(*parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


# each list of choices below ends with the value its option refuses, since
# hypothesis draws the first values of a list most often
#: Grids and sequences of fewer than 40 points.
_COUNTS = st.integers(0, 39).map(str)
_BOUNDS = _values("-2", "2", "0", "1")
_GRIDS = st.one_of(
    _COUNTS, st.builds("lin:{}:{}:{}".format, _BOUNDS, _BOUNDS, _COUNTS),
    st.builds("random:{}".format, _COUNTS),
    st.builds("random:{}:{}:{}".format, _COUNTS, _BOUNDS, _BOUNDS),
    st.lists(_BOUNDS, min_size=1, max_size=6).map(",".join))
_SEQUENCES = st.one_of(
    st.builds("harmonic:{}:{}".format, _BOUNDS, _COUNTS),
    st.builds("geom:{}:{}:{}".format, _BOUNDS, _values("0.5", "2"), _COUNTS),
    st.lists(_BOUNDS, min_size=1, max_size=6).map(",".join))
_TOLS = _values("1e-9", "1e-6", "0.1")
_METRIC_OPTIONS = _argv(
    _option("metric", st.sampled_from(cli._REAL_POINT_METRICS), required=True),
    _option("beta", _values("0.25", "-0.5")), _option("period", _values("1", "0.001")),
    _option("t-grid", st.sampled_from(["2", "3", "8", "64", "1"])),
    _option("norm", st.sampled_from(["operator", "entry-sum-squares"])),
    _option("order", st.sampled_from(["cone", "entrywise"])))
_NUMBERS = _values("0.25", "0.5", "0.6", "-0.4").map(float)
_COEFFICIENTS = st.one_of(
    st.builds(lambda v: {"realization": "scalar", "value": v}, _NUMBERS),
    st.builds(lambda a, b, c, d: {"realization": "mat2", "entries": [[a, b], [c, d]]},
              _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS))


@st.composite
def _command_lines(draw) -> list[list[str]]:
    """One run of a subcommand, or a certify run and a solve of its
    certificate; ``{dir}`` stands for the run's directory."""
    command = draw(st.sampled_from(["check-axioms", "classify", "certify", "demo-integral"]))
    report = ["--report", "{dir}/report.json"]
    if command == "demo-integral":
        return [[command, *draw(_argv(
            _option("grid", st.integers(1, 512), required=True),
            _option("alpha", _values("0.5", "0.9")), _option("k", _values("1", "2")),
            _option("quadrature", st.sampled_from(["trapezoid", "midpoint-log"])),
            _option("tol", _TOLS))), *report, "--solution", "{dir}/solution.csv"]]
    metric = draw(_METRIC_OPTIONS)
    if command == "check-axioms":
        return [[command, *metric, *draw(_argv(
            _option("grid", _GRIDS, required=True), _option("tol", _TOLS),
            _option("seed-rng", st.sampled_from(["0", "3", "7", "-1"])))), *report]]
    if command == "classify":
        return [[command, *metric, *draw(_argv(
            _option("seq", _SEQUENCES, required=True),
            _option("candidate", _BOUNDS, required=True),
            _option("eps", _TOLS, required=True),
            _option("window", st.sampled_from(["1", "5", "40", "0"]), required=True))),
            "--trace", "{dir}/trace.csv", *report]]
    run_map = draw(_option("map", st.sampled_from(
        ["linear-quarter", "piecewise-quarter", "table:{dir}/none.json"]), required=True))
    coefficient = draw(st.one_of(st.just(["--search"]), _COEFFICIENTS.map(
        lambda a: ["--a", json.dumps(a)])))
    certify = [command, *metric, *run_map, *coefficient, *draw(_argv(
        _option("regime", st.sampled_from(sorted(cli._REGIMES)), required=True),
        _option("grid", _GRIDS, required=True), _option("seed", _BOUNDS),
        _option("orbit-len", st.sampled_from(["2", "5", "30", "1"])), _option("tol", _TOLS))),
        "--out", "{dir}/cert.json"]
    solve = ["solve", *metric, *run_map, *draw(_argv(
        _option("seed", _BOUNDS, required=True),
        _option("max-iter", st.sampled_from(["1", "5", "1000", "0"])), _option("tol", _TOLS))),
        "--cert", "{dir}/cert.json", "--trace", "{dir}/trace.csv", *report]
    return [certify, solve]


@settings(max_examples=examples(150), deadline=None)
@given(_command_lines())
def test_every_command_line_ends_in_an_exit_code_and_at_most_one_error_line(argvs):
    # pytest's settings make a RuntimeWarning an error, so a warning fails
    # the run as a traceback does
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([arg.replace("{dir}", tmp) for arg in argv])
                except SystemExit as exc:
                    code = exc.code
            err = err.getvalue()
            if code == 2:
                assert err.startswith("usage: quasifix "), err
            else:
                assert code in (0, 1)
                assert err == "" or (err.count("\n") == 1 and err.startswith(
                    ("error: ", "no scalar certificate "))), err
