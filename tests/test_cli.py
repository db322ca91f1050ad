from __future__ import annotations

import json
from pathlib import Path

import pytest

from quasifix.cli import _write_report, main


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


def test_check_axioms_accepts_a_zero_tolerance():
    assert main(["check-axioms", "--metric", "mat2-split", "--grid", "5",
                 "--tol", "0"]) == 0


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


def test_unwritten_reports_are_not_serialized():
    # an object json cannot encode shows whether the report was serialized
    _write_report(None, {}, {"unserializable": object()}, None)


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


# --- usage and output routing ----------------------------------------------------

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
