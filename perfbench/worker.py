"""One benchmark process: set up, warm up, then run ops in a closed loop.

``run.py`` starts this file in a fresh interpreter for every run and every
set-up probe.  It imports ``quasifix`` from the checkout's ``src/`` only and
calls ``quasifix.cli.main(argv)`` in-process, with stdout and stderr captured
and reports written under ``.perfbench_run/`` in the checkout.  One caller
issues each op after the previous one returned.

Modes:

* ``--setup-only``: import, build the inputs, print ``ready`` and exit.
* ``--trace 0``: time ops for ``--seconds`` (whole decks), then print the
  end-to-end figures as one JSON line.
* ``--trace 1``: run a fixed op list untraced, then again with layer spans,
  and print the per-layer figures as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

#: Decks in a traced run; fixed so that counts repeat exactly.
TRACE_DECKS = {"certify": 2, "axioms": 8, "solve": 8}

#: A timed run goes on past ``--seconds`` until it has this many latency
#: samples, so that p90 has at least ten beyond it.
MIN_OPS = 100


def _import_program():
    if not (SRC / "quasifix" / "__init__.py").is_file():
        raise SystemExit(f"error: no quasifix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quasifix
    import quasifix.cli

    if Path(quasifix.__file__).resolve().parent != (SRC / "quasifix").resolve():
        raise SystemExit(f"error: quasifix was imported from {quasifix.__file__}")
    return quasifix.cli


class Runner:
    """Set-up state plus the op loop of one workload run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.cli = _import_program()
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.work = RUN_DIR / f"{workload}-{os.getpid()}"
        self.setup_dir = self.work / "setup"
        self.out_dir = self.work / "out"
        self.setup_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            for argv in workloads.setup_argvs(workload, str(self.setup_dir)):
                rc = self._cli(argv, io.StringIO())
                if rc != 0:
                    raise SystemExit(f"error: set-up run {argv} exited {rc}")
        except BaseException:
            self.close()
            raise
        self._deck = (0, workloads.deck(workload, seed, 0, str(self.setup_dir)))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def deck(self, index: int) -> list:
        if self._deck[0] != index:
            self._deck = (index, self.wl.deck(self.workload, self.seed, index,
                                              str(self.setup_dir)))
        return self._deck[1]

    def _cli(self, argv: list[str], err: io.StringIO) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                return self.cli.main(argv + ["--out-dir", str(self.out_dir)])
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2

    def run_op(self, op) -> tuple[float, str | None, int]:
        """(latency in s, oracle failure or None, report bytes written)."""
        for stale in self.out_dir.iterdir():
            stale.unlink()
        err = io.StringIO()
        result = None
        start = perf_counter()
        try:
            if op.api is not None:
                result = op.api()
                rc = 0
            else:
                rc = self._cli(op.argv, err)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = -1
            err.write(repr(exc))
        latency = perf_counter() - start
        written = sum(f.stat().st_size for f in self.out_dir.iterdir())
        report = None
        if op.argv is not None and (self.out_dir / self.wl.REPORT).is_file():
            report = json.loads((self.out_dir / self.wl.REPORT).read_text())["report"]
        outcome = self.wl.Outcome(rc, report, err.getvalue(), result)
        try:
            failure = op.check(outcome)
        except (KeyError, TypeError, ValueError) as exc:
            failure = f"malformed report: {exc!r}"
        if failure is not None:
            failure = f"{op.kind}: {failure} ({' '.join(op.argv or ['api'])})"
        return latency, failure, written

    def run_ops(self, ops: list, on_op=None) -> tuple[list[float], list[str], int]:
        latencies, failures, written = [], [], 0
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i)
            latency, failure, nbytes = self.run_op(op)
            latencies.append(latency)
            written += nbytes
            if failure is not None:
                failures.append(failure)
        return latencies, failures, written

    def warm_up(self) -> None:
        self.run_ops(self.wl.warmup_ops(self.workload, str(self.setup_dir)))

    def fixed_ops(self, decks: int, max_ops: int | None) -> list:
        ops = [op for i in range(decks) for op in self.deck(i)]
        return ops[:max_ops] if max_ops else ops


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seconds: float, max_ops: int | None) -> dict:
    """Whole decks until ``seconds`` of loop time have passed and at least
    ``MIN_OPS`` ops ran, or the first ``max_ops`` ops."""
    latencies, failures = [], []
    start = perf_counter()
    index = 0
    while True:
        ops = runner.deck(index)
        if max_ops:
            ops = ops[:max_ops - len(latencies)]
        lat, fail, _ = runner.run_ops(ops)
        latencies += lat
        failures += fail
        index += 1
        if max_ops:
            if len(latencies) >= max_ops:
                break
        elif perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
            break
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops": len(latencies),
        "failures": failures,
        "metrics": {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * deciles[4],
            "latency_p90_ms": 1e3 * deciles[8],
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def trace(runner: Runner, max_ops: int | None) -> dict:
    """The same fixed op list untraced, then traced; both passes count as
    attempted ops, and the layer metrics are per op of one pass."""
    from tracing import Tracer

    ops = runner.fixed_ops(TRACE_DECKS[runner.workload], max_ops)
    plain, failures, _ = runner.run_ops(ops)
    tracer = Tracer()
    tracer.install()

    def enter(i: int) -> None:
        tracer.op_id = i

    traced, traced_failures, written = runner.run_ops(ops, enter)
    metrics = tracer.layer_metrics(len(ops), written, sum(traced) / sum(plain))
    tracer.write(RUN_DIR / "spans" / f"{runner.workload}.npz")
    return {"ops": 2 * len(ops), "failures": failures + traced_failures,
            "metrics": metrics}


def environment() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TRACE_DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many ops (smoke tests)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        runner.warm_up()
        if args.trace:
            result = trace(runner, args.ops)
        else:
            result = measure(runner, args.seconds, args.ops)
    finally:
        runner.close()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
