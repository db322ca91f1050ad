"""Compare what the CLI writes at a base revision with what the working tree
writes, run by run.

    python3 tests/identity.py --base REV

REV's ``src/`` is exported with ``git archive`` into a temporary directory.
One corpus of runs then goes through each side's ``quasifix.cli.main``, in
one subprocess per side, each in a working directory of its own:

* the set-up certificates of the benchmark's workloads;
* decks 0-5 of every workload at seeds 1-3 (``perfbench/workloads.py``,
  which this script only reads), every CLI op as the deck has it, and every
  ``solve`` and ``classify`` op once more with ``--trace`` and every
  ``demo-integral`` op with ``--solution``;
* the gallery, and the runs of the CI's console-script step that read no
  hand-edited file;
* explicit ``certify`` checks on ``mat2-split`` that no deck runs
  (``_CERTIFY_RUNS``): each ``--norm`` and ``--order`` override and
  ``--tol 0``, with positive, negative and non-diagonal coefficients that
  violate and that hold.

A run is its exit code, its stdout and stderr, and the text of every file
it writes, with the report's timestamp and the hash of ``solve``'s
certificate file masked: the certificates of the two sides may differ, and
a solve under each is compared on what it reports.  The script prints how
many runs match and the first ones that differ, with a diff of each, and
exits 1 when any run differs.  It is no test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
DECKS = range(6)
WORKLOADS = ("certify", "axioms", "solve")

#: Runs one side's corpus: reads the runs as JSON from stdin, runs each
#: through ``cli.main`` in the current directory, and writes the results as
#: JSON to the file named by its one argument.
CHILD = r'''
import contextlib, io, json, os, sys
from pathlib import Path
from quasifix import cli

runs, results = json.load(sys.stdin), []
for run in runs:
    for name in run["files"]:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(run["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    files = {name: Path(name).read_text(encoding="utf-8") if Path(name).is_file()
             else None for name in run["files"]}
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "files": files})
Path(sys.argv[1]).write_text(json.dumps(results), encoding="utf-8")
'''

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_CERT_HASH = re.compile(r'"cert": "[0-9a-f]{64}"')

#: Differing runs printed with a diff; the rest are only counted.
SHOWN = 5

#: The runs of the CI's console-script step in ``.github/workflows/tests.yml``,
#: in its order, without its shell checks; keep the two in step.  Left out:
#: the solves of certificates the step edits with ``python -c`` first, and
#: the trace written under a regular file, which no argv alone sets up.
_CI_RUNS = [
    ["check-axioms", "--metric", "mat2-split", "--grid", "5"],
    ["check-axioms", "--metric", "periodic-fn", "--grid", "random:41", "--seed-rng", "7"],
    ["check-axioms", "--metric", "periodic-fn", "--period", "0.001", "--t-grid", "100",
     "--grid", "1e150,-1e150,0,3e149"],
    ["demo-integral", "--grid", "4096", "--solution", "solution.csv"],
    ["demo-integral", "--alpha", "0.7639437268410976", "--k", "1",
     "--quadrature", "midpoint-log", "--grid", "4096", "--report", "report.json"],
    ["certify", "--map", "linear-quarter", "--metric", "mat2-split", "--regime",
     "orbital", "--a", '{"realization": "mat2", "entries": [[0.6, 0], [0, 0.6]]}',
     "--seed", "1.0", "--out", "setup/ci-orbital.json"],
    ["solve", "--map", "linear-quarter", "--metric", "mat2-split", "--seed", "3",
     "--cert", "setup/ci-orbital.json", "--trace", "trace.csv", "--report", "report.json"],
    ["solve", "--map", "piecewise-quarter", "--metric", "mat2-split", "--seed", "3",
     "--cert", "setup/ci-orbital.json"],
    ["solve", "--map", "linear-quarter", "--order", "cone", "--metric", "mat2-split",
     "--seed", "3", "--cert", "setup/ci-orbital.json"],
    ["certify", "--map", "linear-quarter", "--metric", "mat2-split-scaled", "--regime",
     "forward", "--a", '{"realization": "mat2", "entries": [[0.3, 0], [0, 0.3]]}',
     "--grid", "random:19", "--out", "report.json"],
    ["demo-integral", "--grid", "64", "--solution", "out/new/solution.csv"],
    ["certify", "--map", "linear-quarter", "--metric", "scalar-backward-one", "--regime",
     "two-step", "--a", '{"realization": "scalar", "value": 0.3333333333333333}',
     "--seed", "1.0", "--out", "setup/ci-two-step.json"],
    ["solve", "--map", "linear-quarter", "--metric", "scalar-backward-one", "--seed", "-3",
     "--cert", "setup/ci-two-step.json", "--report", "report.json"],
    ["certify", "--map", "linear-quarter", "--metric", "mat2-split", "--regime", "forward",
     "--search", "--grid", "lin:-2:2:9", "--out", "setup/ci-forward.json"],
    ["classify", "--metric", "scalar-forward-one", "--seq", "harmonic:1.0:50",
     "--candidate", "1.0", "--eps", "0.1", "--window", "5", "--trace", "trace.csv",
     "--report", "report.json"],
]


#: ``certify`` runs on ``mat2-split`` beside the decks: the forward and the
#: orbital regime under every override, each with c I and -c I for c = 0.3
#: (violating) and 0.5 (holding), and with c I plus 0.1 above the diagonal.
_COEFFICIENT = '{"realization": "mat2", "entries": [[%r, %r], [0.0, %r]]}'
_CERTIFY_RUNS = [
    ["certify", "--map", "linear-quarter", "--metric", "mat2-split", *regime, *override,
     "--a", _COEFFICIENT % (c, off, c), "--out", "report.json"]
    for regime in (["--regime", "forward", "--grid", "lin:-2:2:9"],
                   ["--regime", "orbital", "--seed", "1.5"])
    for override in ([], ["--norm", "operator"], ["--order", "cone"], ["--tol", "0"])
    for c, off in ((0.3, 0.0), (0.5, 0.0), (-0.3, 0.0), (-0.5, 0.0), (0.3, 0.1), (0.5, 0.1))
]


def _outputs(argv: list[str]) -> list[str]:
    """The files a run writes: the values of its output options."""
    return [argv[i + 1] for i, arg in enumerate(argv[:-1])
            if arg in ("--report", "--out", "--trace", "--solution")]


def corpus() -> list[list[str]]:
    """Every argv of the comparison, in the order it runs: set-up runs first,
    since the solve ops read their certificates."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    argvs = [argv for w in WORKLOADS for argv in workloads.setup_argvs(w, "setup")]
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index in DECKS:
                for op in workloads.deck(workload, seed, index, "setup"):
                    if op.argv is None:
                        continue
                    argvs.append(op.argv)
                    if op.argv[0] in ("solve", "classify"):
                        argvs.append([*op.argv, "--trace", "trace.csv"])
                    elif op.argv[0] == "demo-integral":
                        argvs.append([*op.argv, "--solution", "solution.csv"])
    return argvs + [["gallery"]] + _CI_RUNS + _CERTIFY_RUNS


def run_side(src: Path, work: Path, argvs: list[list[str]]) -> list[dict]:
    """The results of ``argvs`` under the package in ``src``, run in one
    subprocess in the directory ``work``."""
    (work / "setup").mkdir(parents=True)
    runs = [{"argv": argv, "files": _outputs(argv)} for argv in argvs]
    env = {k: v for k, v in os.environ.items() if k != "QUASIFIX_OUT_DIR"}
    env["PYTHONPATH"] = str(src)
    results = work / "results.json"
    subprocess.run([sys.executable, "-c", CHILD, str(results)], cwd=work, env=env,
                   input=json.dumps(runs), text=True, check=True)
    return json.loads(results.read_text(encoding="utf-8"))


def _masked(result: dict) -> dict:
    files = {name: None if text is None else _CERT_HASH.sub(
        '"cert": ""', _TIMESTAMP.sub('"timestamp": ""', text))
        for name, text in result["files"].items()}
    return {**result, "files": files}


def _diff(base: dict, head: dict, limit: int = 12) -> list[str]:
    """The first lines of a unified diff of every part of two results."""
    lines = []
    for part in ("code", "stdout", "stderr", *base["files"]):
        old = base["files"][part] if part in base["files"] else base[part]
        new = head["files"][part] if part in head["files"] else head[part]
        if old != new:
            lines += difflib.unified_diff(str(old).splitlines(), str(new).splitlines(),
                                          f"base {part}", f"head {part}", n=0,
                                          lineterm="")
    return lines[:limit]


def export(rev: str, into: Path) -> Path:
    """REV's ``src/``, exported with ``git archive`` under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             stdout=subprocess.PIPE, check=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    argvs = corpus()
    with tempfile.TemporaryDirectory(prefix="quasifix-identity-") as tmp:
        tmp = Path(tmp)
        base = run_side(export(args.base, tmp / "base"), tmp / "base-run", argvs)
        head = run_side(ROOT / "src", tmp / "head-run", argvs)
    differing = [(a, b, h) for a, b, h in zip(argvs, map(_masked, base), map(_masked, head))
                 if b != h]
    print(f"{len(argvs) - len(differing)} of {len(argvs)} runs identical "
          f"(base {args.base}, head the working tree)")
    for argv, b, h in differing[:SHOWN]:
        print(f"\ndiffers: {' '.join(argv)}")
        print("\n".join("  " + line for line in _diff(b, h)))
    if len(differing) > SHOWN:
        print(f"\n... and {len(differing) - SHOWN} more differing runs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
