"""The runs of the ``quasifix`` console script, each with what it must show.

``RUNS`` is the one list of them.  Each run goes through ``cli.main``
in-process, where pytest's settings make a ``RuntimeWarning`` an error, and
through the installed ``quasifix`` entry point when one is on ``PATH``
(``pip install .``), with ``PYTHONWARNINGS=error::RuntimeWarning``.  A run
works in a directory of its own: it first makes the runs it ``needs``, whose
files it reads, and then applies its ``edit``, if any, to a certificate they
wrote.  ``tests/identity.py`` runs the argvs of the runs with no ``edit`` in
table order, in one directory, so a run comes after the runs it needs.

What every run must show: its exit code; stderr empty, or one ``error:``
line where ``error`` is set, never a traceback; a ``stdout`` text where one
is set; the line count of each file in ``lines``; and every JSON report it
writes holds the bytes ``json.dumps(payload, sort_keys=True, indent=2)``
writes, plus a newline.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from quasifix import cli

_ORBITAL = '{"realization": "mat2", "entries": [[0.6, 0], [0, 0.6]]}'
_VIOLATING = '{"realization": "mat2", "entries": [[0.3, 0], [0, 0.3]]}'
_THIRD = '{"realization": "scalar", "value": 0.3333333333333333}'
_SPLIT_SOLVE = ["solve", "--map", "linear-quarter", "--metric", "mat2-split", "--seed", "3"]
_TWO_STEP_SOLVE = ["solve", "--map", "linear-quarter", "--metric", "scalar-backward-one"]


@dataclass(frozen=True)
class Run:
    name: str
    argv: list[str]
    code: int = 0
    #: runs made first, in the same directory, whose files this run reads
    needs: tuple[str, ...] = ()
    #: (certificate, edited copy, change of its report): the copy is the
    #: certificate with ``change`` applied to its ``report``
    edit: tuple[str, str, Callable[[dict], None]] | None = None
    error: bool = False
    stdout: str | None = None
    lines: dict[str, int] = field(default_factory=dict)


RUNS = [
    Run("gallery", ["gallery"]),
    Run("axioms-split", ["check-axioms", "--metric", "mat2-split", "--grid", "5"]),
    # periodic-fn sweeps write their kernel in place through ufunc where= and
    # screen the triangles on the two end components, with a margin that
    # scales with the distances; both runs pass
    Run("axioms-periodic-random", ["check-axioms", "--metric", "periodic-fn",
                                   "--grid", "random:41", "--seed-rng", "7"]),
    Run("axioms-periodic-huge", ["check-axioms", "--metric", "periodic-fn", "--period",
                                 "0.001", "--t-grid", "100", "--grid", "1e150,-1e150,0,3e149"]),
    # the integral demo at the benchmark's largest grid, whose kernels write
    # in place through ufunc out= and where=; its --solution CSV holds the
    # header and one row per sample
    Run("demo-4096", ["demo-integral", "--grid", "4096", "--solution", "s.csv"],
        lines={"s.csv": 4097}),
    # rate 0.6 under the log-midpoint rule: the solve walks 39 steps, far
    # past the two steps the demo's certificate checks, and checks the
    # certificate's inequality on each of them
    Run("demo-midpoint-log", ["demo-integral", "--alpha", "0.7639437268410976", "--k", "1",
                              "--quadrature", "midpoint-log", "--grid", "4096",
                              "--report", "demo.json"]),
    # an orbital certificate written to a file, then a solve that reads it
    # back from another seed; a = 0.6 I leaves slack on the contraction, and
    # the --trace CSV holds the header and one row per iterate (17
    # iterations from seed 3)
    Run("certify-orbital", ["certify", "--map", "linear-quarter", "--metric", "mat2-split",
                            "--regime", "orbital", "--a", _ORBITAL, "--seed", "1.0",
                            "--out", "c.json"]),
    Run("solve-orbital", [*_SPLIT_SOLVE, "--cert", "c.json", "--trace", "t.csv",
                          "--report", "solve.json"],
        needs=("certify-orbital",), lines={"t.csv": 19}),
    # the certificate is for linear-quarter under mat2-split's own order: a
    # solve of another map, or under another order, is refused, not solved
    Run("solve-another-map", ["solve", "--map", "piecewise-quarter", "--metric",
                              "mat2-split", "--seed", "3", "--cert", "c.json"],
        code=1, needs=("certify-orbital",), error=True),
    Run("solve-another-order", [*_SPLIT_SOLVE, "--order", "cone", "--cert", "c.json"],
        code=1, needs=("certify-orbital",), error=True),
    # a = 0.3 I fails on all 342 off-diagonal pairs, so the report holds a
    # long violation list, which the writer writes as rows
    Run("certify-violating", ["certify", "--map", "linear-quarter", "--metric",
                              "mat2-split-scaled", "--regime", "forward", "--a", _VIOLATING,
                              "--grid", "random:19", "--out", "r.json"], code=1),
    # every output file goes through one writer, which makes missing
    # directories: the --solution CSV of a 64-point demo lands in a new
    # directory with its header and 64 rows
    Run("demo-new-directory", ["demo-integral", "--grid", "64",
                               "--solution", "out/new/s.csv"],
        lines={"out/new/s.csv": 65}),
    # an output path under a regular file cannot be written
    Run("classify-trace-under-a-file", [
        "classify", "--metric", "scalar-forward-one", "--seq", "harmonic:1.0:50",
        "--candidate", "1.0", "--eps", "0.1", "--window", "5", "--trace", "s.csv/t.csv"],
        code=1, needs=("demo-4096",), error=True),
    Run("certify-two-step", ["certify", "--map", "linear-quarter", "--metric",
                             "scalar-backward-one", "--regime", "two-step", "--a", _THIRD,
                             "--seed", "1.0", "--out", "two.json"]),
    # a two-step coefficient edited to -0.4 in the file fails the gate that
    # certify applies
    Run("solve-two-step-negative", [*_TWO_STEP_SOLVE, "--seed", "3",
                                    "--cert", "two-negative.json"],
        code=1, needs=("certify-two-step",), error=True,
        edit=("two.json", "two-negative.json", lambda r: r["a"].update(value=-0.4))),
    # the certificate as certify wrote it, under a solve from -3: its steps
    # keep norm 1, and 538 of its 540 walked samples fail the inequality of
    # a = 1/3, so the solve converges and is not certified
    Run("solve-two-step-from-minus-3", [*_TWO_STEP_SOLVE, "--seed", "-3",
                                        "--cert", "two.json", "--report", "solve.json"],
        code=1, needs=("certify-two-step",), stdout="certified: False"),
    # a searched forward certificate with its coefficient edited to 0.01 I
    # passes every gate, but 15 of the 17 steps of the solve from 3 fail its
    # inequality
    Run("certify-forward-search", ["certify", "--map", "linear-quarter", "--metric",
                                   "mat2-split", "--regime", "forward", "--search",
                                   "--grid", "lin:-2:2:9", "--out", "fwd.json"]),
    Run("solve-forward-forged-rate", [*_SPLIT_SOLVE, "--cert", "fwd-forged.json"],
        code=1, needs=("certify-forward-search",), stdout="certified: False",
        edit=("fwd.json", "fwd-forged.json",
              lambda r: r["a"].update(entries=[[0.01, 0], [0, 0.01]]))),
    # the orbital certificate with its coefficient edited to a scalar,
    # outside mat2-split's codomain, fails the gate
    Run("solve-orbital-scalar-coefficient", [*_SPLIT_SOLVE, "--cert", "forged.json"],
        code=1, needs=("certify-orbital",), error=True,
        edit=("c.json", "forged.json",
              lambda r: r.update(a={"realization": "scalar", "value": 0.1}))),
    # classify writes its --trace CSV from the verdict's distances: the
    # header and one row per point of the 50-point sequence
    Run("classify-trace", ["classify", "--metric", "scalar-forward-one", "--seq",
                           "harmonic:1.0:50", "--candidate", "1.0", "--eps", "0.1",
                           "--window", "5", "--trace", "c.csv", "--report", "r.json"],
        lines={"c.csv": 51}),
]

_BY_NAME = {run.name: run for run in RUNS}

#: The directory of the package under test, for the subprocesses: an
#: installed script then runs this package, not a stale install.
_PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def _subprocess_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != cli.OUT_DIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def _reports(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in ("--report", "--out")]


@pytest.fixture(params=["in-process", "installed"])
def console(request, tmp_path, monkeypatch, capsys):
    """A function that runs an argv in ``tmp_path`` and returns its exit
    code, stdout and stderr."""
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    if request.param == "in-process":
        monkeypatch.chdir(tmp_path)

        def run(argv: list[str]) -> tuple[int, str, str]:
            code = cli.main(argv)
            return (code, *capsys.readouterr())
        return run
    script = shutil.which("quasifix")
    if script is None:
        pytest.skip("no quasifix on PATH: run pip install . first")
    env = _subprocess_env()

    def run(argv: list[str]) -> tuple[int, str, str]:
        done = subprocess.run([script, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr
    return run


def test_a_run_needs_only_runs_before_it_that_edit_nothing():
    for index, run in enumerate(RUNS):
        for name in run.needs:
            assert RUNS.index(_BY_NAME[name]) < index and _BY_NAME[name].edit is None


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_console_run(console, run, tmp_path):
    for name in run.needs:
        need = _BY_NAME[name]
        assert console(need.argv)[0] == need.code, name
    if run.edit is not None:
        source, target, change = run.edit
        payload = json.loads((tmp_path / source).read_text(encoding="utf-8"))
        change(payload["report"])
        (tmp_path / target).write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = console(run.argv)
    assert code == run.code, err
    if run.error:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    if run.stdout is not None:
        assert run.stdout in out
    for name, count in run.lines.items():  # as wc -l counts
        assert (tmp_path / name).read_bytes().count(b"\n") == count, name
    for name in _reports(run.argv):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


def test_the_module_entry_point_runs_the_gallery(tmp_path, capsys):
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "quasifix.cli", "gallery"], cwd=tmp_path, env=_subprocess_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert cli.main(["gallery"]) == 0
    assert done.stdout == capsys.readouterr().out
