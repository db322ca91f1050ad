"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {certify,axioms,solve,all} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it times how long a fresh interpreter takes to set up
(``setup_s``, the median of several probes), then runs the workload in a
fresh process for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics of a separate traced run.
Every child process gets one BLAS/OpenMP thread and a fixed glibc mmap
threshold.  The last line of stdout is
the result as JSON; the line before it records the environment.  The exit
code is 0 when every op agreed with its oracle, 1 when one did not, and 2
when the benchmark could not run at all (for example, without ``src/``).
``--workload all`` runs every workload in turn and exits with the worst code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Set-up probes per run; one more runs first, unmeasured, to warm the
#: file cache and the bytecode cache.
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
WORKLOADS = ("certify", "axioms", "solve")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc raises its mmap threshold after each large free, so whether a
    # later array reuses the heap -- and the peak RSS -- depended on the
    # order of earlier ops (116-132 MB for the same axioms ops).  Fixing it
    # at the ceiling of that adjustment (32 MiB on 64-bit), where a long
    # run settles anyway, makes peak_rss_mb repeat.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    return env


def _worker_argv(args: argparse.Namespace, *extra: str) -> list[str]:
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    return argv + (["--ops", str(args.ops)] if args.ops else [])


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh worker until it is ready for its first op."""
    start = perf_counter()
    with subprocess.Popen(_worker_argv(args, "--setup-only"), cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return ready - start


def run_worker(args: argparse.Namespace) -> dict:
    proc = subprocess.run(
        _worker_argv(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload run failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many ops (smoke tests only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = sys.argv[1:] if argv is None else argv
        return max(main(rest + ["--workload", w]) for w in WORKLOADS)

    if not (ROOT / "src" / "quasifix" / "__init__.py").is_file():
        print(f"error: no quasifix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            from tracing import LAYER_UNITS as units
            result = run_worker(args)
        else:
            units = END_TO_END_UNITS
            probes = [probe_setup(args) for _ in range(SETUP_PROBES + 1)][1:]
            result = run_worker(args)
            result["metrics"]["setup_s"] = statistics.median(probes)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = result["failures"]
    for failure in failures[:10]:
        print(f"oracle mismatch: {failure}", file=sys.stderr)
    info = dict(result["environment"], workload=args.workload, seed=args.seed,
                trace=args.trace, latency_samples=result["ops"],
                fail_frac=len(failures) / result["ops"])
    print(json.dumps({"environment": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["ops"],
        "failed": len(failures),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
