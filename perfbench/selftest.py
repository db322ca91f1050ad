"""Smoke test of the benchmark itself; not a timing gate.

    python3 perfbench/selftest.py

Runs every workload at a tiny op count through ``run.py``, once untraced and
twice traced with the same seed, and checks that

* every metric named in ``BENCHMARK.json`` is reported with its unit and a
  finite value;
* no op disagreed with its oracle (``failed`` is 0);
* the layer counts repeat exactly between the two traced runs.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = 12
SEED = 7
REPEATED_COUNTS = ("algebra.elements_created", "metrics.eval_calls",
                   "contraction.verify_calls", "solver.iterations",
                   "integral.apply_calls")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--ops", str(OPS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"{where}: {result['failed']} ops disagreed with their oracle")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{where}: {metric['name']} reported as {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    counts_seen = {name: 0.0 for name in REPEATED_COUNTS}
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_metrics(run(workload, 0), spec["end_to_end"], workload)
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            problems += check_metrics(result, spec["per_layer"], f"{workload} traced")
        for name in REPEATED_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            counts_seen[name] += a
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs ({a} != {b})")
        print(f"{workload}: checked", flush=True)
    for name, total in counts_seen.items():
        if total == 0:
            problems.append(f"{name} was zero on every workload")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
