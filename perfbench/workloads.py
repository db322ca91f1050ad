"""Seeded op decks for the benchmark workloads, and the oracles that check them.

A workload is an endless sequence of decks.  Every deck of a workload holds
the same number of ops of each class (the class shares in ``SHARES``); the
seed only shuffles the deck and picks each op's parameters inside the class's
ranges.  Sizes that set an op's cost step through their levels in turn from
one deck to the next (``Draw.cycle``), starting at a seed-chosen phase, so a
run of whole cycles sees every level equally often and a held-out seed runs
the same mix at the same sizes.

Every op carries an oracle.  Oracles derive the expected outcome from the
mathematics of the generated input -- closed forms and counts -- and never
from the code under test; an oracle returns ``None`` when the op's exit code
and report agree with it, and a short reason otherwise.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from quasifix import metrics as qmetrics

#: The CLI's default --tol, which every op runs with.
TOL = 1e-9

#: File name every CLI op writes its JSON report (or certificate) to.
REPORT = "report.json"

#: Ops per deck for each op class.  The seed never changes these counts.
SHARES = {
    "certify": {
        "search-forward": 3,      # one each on lin:-2:2:{9,13,17}
        "search-orbital": 2,
        "search-two-step": 1,
        "search-backward": 1,
        "check-violating": 5,     # --a 0.3*I
        "check-clean": 4,         # --a 0.5*I
    },
    "axioms": {
        "sweep-vectorized": 10,   # two per real-point catalog metric
        "sweep-generic": 3,
        "sweep-repeated": 3,
    },
    "solve": {
        "demo-integral": 4,
        "solve-forward": 2,
        "solve-orbital": 2,
        "classify": 4,
    },
}

REAL_POINT_METRICS = ("mat2-split", "mat2-split-scaled", "scalar-forward-one",
                      "scalar-backward-one", "periodic-fn")


@dataclass
class Outcome:
    """What one op produced: exit code, parsed report, stderr, API result."""

    rc: int
    report: dict | None
    stderr: str
    result: Any = None


@dataclass
class Op:
    """One closed-loop operation.

    CLI ops run ``quasifix.cli.main(argv)`` and write their report to
    ``REPORT`` in the op's output directory; API ops call ``api()`` instead.
    """

    kind: str
    check: Callable[[Outcome], str | None]
    argv: list[str] | None = None
    api: Callable[[], Any] | None = None


def deck(workload: str, seed: int, index: int, setup_dir: str) -> list[Op]:
    """Deck ``index`` of ``workload`` under ``seed``; the same arguments
    always give the same ops in the same order.  ``setup_dir`` holds the
    files made by ``setup_argvs``."""
    draw = Draw(workload, seed, index)
    ops = _BUILDERS[workload](draw, setup_dir)
    counts: dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    if counts != SHARES[workload]:
        raise AssertionError(f"{workload} deck does not match its shares: {counts}")
    draw.rng.shuffle(ops)
    return ops


def warmup_ops(workload: str, setup_dir: str) -> list[Op]:
    """One small op of each class, run before timing starts."""
    if workload == "certify":
        return [_search_forward(9, 0.25), _search_orbital(1.0), _search_two_step(1.0),
                _search_backward(9), _explicit_check(17, 0.3, "lin:-2:2:17", 0.25, 0),
                _explicit_check(17, 0.5, "lin:-2:2:17", 0.25, 0)]
    if workload == "axioms":
        return [_sweep_vectorized(m, 21, "lin", 0) for m in REAL_POINT_METRICS] + [
            _sweep_generic(random.Random(0), 8),
            _sweep_repeated(random.Random(0), "mat2-split")]
    return [_demo(1024, "trapezoid", 0.2, 2.0), _demo(1024, "midpoint-log", 0.2, 2.0),
            _solve(setup_dir, "forward", 1.0), _solve(setup_dir, "orbital", 1.0),
            _classify(1.0, 100, 10)]


def setup_argvs(workload: str, setup_dir: str) -> list[list[str]]:
    """CLI runs that make the input files a workload reads: the ``solve``
    workload's forward-global and orbital certificates."""
    if workload != "solve":
        return []
    return [
        ["certify", "--map", "linear-quarter", "--metric", "mat2-split-scaled",
         "--regime", "forward", "--search", "--grid", "lin:-2:2:9",
         "--out", f"{setup_dir}/cert-forward.json"],
        ["certify", "--map", "linear-quarter", "--metric", "mat2-split",
         "--regime", "orbital", "--search", "--seed", "1.0",
         "--out", f"{setup_dir}/cert-orbital.json"],
    ]


class Draw:
    """The seeded choices of one deck."""

    def __init__(self, workload: str, seed: int, index: int) -> None:
        self.key = f"{workload}:{seed}"
        self.index = index
        self.rng = random.Random(f"{self.key}:{index}")

    def cycle(self, name: str, per_deck: int, count: int) -> list[int]:
        """``per_deck`` levels in ``range(count)`` for this deck.

        Level j of deck d is ``(phase + d * per_deck + j) % count`` with a
        phase fixed by the seed, so consecutive decks walk through every
        level in turn.
        """
        phase = random.Random(f"{self.key}:{name}").randrange(count)
        return [(phase + self.index * per_deck + j) % count for j in range(per_deck)]


def _fail(cond: bool, reason: str) -> str | None:
    return None if cond else reason


# ---------------------------------------------------------------------------
# certify: contraction search and explicit checks
# ---------------------------------------------------------------------------

def _certify_deck(draw: Draw, setup_dir: str) -> list[Op]:
    rng = draw.rng
    ops = [_search_forward(n, rng.uniform(0.1, 1.0)) for n in (9, 13, 17)]
    ops += [_search_orbital(rng.uniform(0.5, 4.0)) for _ in range(2)]
    ops.append(_search_two_step(rng.uniform(0.5, 4.0)))
    ops.append(_search_backward(9 + 4 * draw.cycle("backward-n", 1, 2)[0]))
    # the cheap explicit checks are over half of the deck, so the median
    # latency falls inside their cluster rather than between two op classes
    sizes = [17 + level for level in draw.cycle("explicit-n", 9, 5)]
    for i, c in enumerate((0.3,) * 5 + (0.5,) * 4):
        grid = f"lin:-2:2:{sizes[i]}" if i % 2 else f"random:{sizes[i]}"
        ops.append(_explicit_check(sizes[i], c, grid, rng.uniform(0.1, 1.0),
                                   rng.randrange(1 << 30)))
    return ops


def _scalar_of(element: dict) -> tuple[float, bool]:
    """(c, is c*I) for a mat2 or sampled coefficient in report JSON."""
    if element["realization"] == "mat2":
        m = element["entries"]
        return m[0][0], m[0][1] == 0.0 and m[1][0] == 0.0 and m[1][1] == m[0][0]
    values = element["values"]
    return values[0], all(v == values[0] for v in values)


def _check_certificate(out: Outcome, regime: str, samples: int,
                       c_exact: float, below: float) -> str | None:
    """A valid certificate c*I with c in [c_exact - below, c_exact + 1e-11].

    The search bisects from above, so c never exceeds the exact threshold
    by more than the final bracket (< 1e-12); the order tolerance lets it
    undershoot by at most ``below``.
    """
    if out.rc != 0 or out.report is None:
        return f"exit {out.rc}, expected a certificate"
    r = out.report
    c, is_scalar = _scalar_of(r["a"])
    return (_fail(r["regime"] == regime, f"regime {r['regime']}")
            or _fail(is_scalar, "coefficient is not a multiple of I")
            or _fail(c_exact - below <= c <= c_exact + 1e-11,
                     f"coefficient {c!r}, expected {c_exact}")
            or _fail(r["samples_checked"] == samples,
                     f"{r['samples_checked']} samples, expected {samples}")
            or _fail(r["violations"] == [] and r["valid"] is True,
                     "certificate records violations"))


def _search_forward(n: int, beta: float) -> Op:
    # T x = x/4 scales every split distance by 1/4, so c^2 = 1/4.  The
    # widest pair has d = 4 and the order tolerance 2e-9 there, which
    # allows c down to 0.5 - 5e-10.
    return Op("search-forward",
              lambda out: _check_certificate(out, "forward-global", n * n, 0.5, 1e-9),
              ["certify", "--map", "linear-quarter", "--metric", "mat2-split-scaled",
               "--beta", repr(beta), "--regime", "forward", "--search",
               "--grid", f"lin:-2:2:{n}", "--out", REPORT])


def _search_orbital(seed: float) -> Op:
    # positive orbit of x/4: d(Ty, T^2 y) = d(y, Ty)/4, so c = 1/2; the
    # tolerance slack is at most tol*2/(3/4 * seed) < 1e-8 for seed >= 0.5
    return Op("search-orbital",
              lambda out: _check_certificate(out, "orbital", 31, 0.5, 1e-8),
              ["certify", "--map", "piecewise-quarter", "--metric", "mat2-split",
               "--regime", "orbital", "--search", "--seed", repr(seed),
               "--out", REPORT])


def _search_two_step(seed: float) -> Op:
    # periodic metric on a positive x/4 orbit: d(Ty, T^2 y) = (3/16) y t and
    # d(y, T^2 y) = (15/16) y t, so a = 1/5 and h = a/(1 - a) = 1/4
    def check(out: Outcome) -> str | None:
        failed = _check_certificate(out, "two-step", 31, 0.2, 1e-8)
        if failed:
            return failed
        return _fail(abs(out.report["h_norm"] - 0.25) <= 2e-8,
                     f"h_norm {out.report['h_norm']!r}, expected 0.25")

    return Op("search-two-step", check,
              ["certify", "--map", "piecewise-quarter", "--metric", "periodic-fn",
               "--regime", "two-step", "--search", "--seed", repr(seed),
               "--out", REPORT])


def _search_backward(n: int) -> Op:
    # For x > y, d(Tx, Ty) has its mass in the (0,0) entry and d(y, x) in
    # the (1,1) entry, so no c*I satisfies the entrywise backward sandwich.
    def check(out: Outcome) -> str | None:
        return (_fail(out.rc == 1, f"exit {out.rc}, expected 1")
                or _fail(out.report is None, "a certificate was written")
                or _fail("no scalar certificate" in out.stderr,
                         "missing the no-certificate message"))

    return Op("search-backward", check,
              ["certify", "--map", "linear-quarter", "--metric", "mat2-split-scaled",
               "--regime", "backward", "--search", "--grid", f"lin:-2:2:{n}",
               "--out", REPORT])


def _explicit_check(n: int, c: float, grid: str, beta: float, grid_seed: int) -> Op:
    # d(Tx, Ty) = d(x, y)/4 against c^2 d(x, y): c = 0.3 fails on every
    # off-diagonal pair of the n distinct points, c = 0.5 holds with equality
    violating = c < 0.5
    kind = "check-violating" if violating else "check-clean"

    def check(out: Outcome) -> str | None:
        want_rc = 1 if violating else 0
        if out.rc != want_rc or out.report is None:
            return f"exit {out.rc}, expected {want_rc} with a report"
        r = out.report
        want = n * (n - 1) if violating else 0
        return (_fail(r["samples_checked"] == n * n,
                      f"{r['samples_checked']} samples, expected {n * n}")
                or _fail(len(r["violations"]) == want,
                         f"{len(r['violations'])} violations, expected {want}")
                or _fail(all(v["x"] != v["y"] for v in r["violations"]),
                         "a diagonal pair was recorded as a violation"))

    a = json.dumps({"realization": "mat2", "entries": [[c, 0.0], [0.0, c]]})
    return Op(kind, check,
              ["certify", "--map", "linear-quarter", "--metric", "mat2-split-scaled",
               "--beta", repr(beta), "--regime", "forward", "--a", a,
               "--grid", grid, "--seed-rng", str(grid_seed), "--out", REPORT])


# ---------------------------------------------------------------------------
# axioms: vectorized, generic and identity-violating sweeps
# ---------------------------------------------------------------------------

def _axioms_deck(draw: Draw, setup_dir: str) -> list[Op]:
    rng = draw.rng
    ops = []
    for metric in REAL_POINT_METRICS:
        levels = draw.cycle(f"sweep-n-{metric}", 2, 21)
        for level, kind in zip(levels, ("lin", "random")):
            ops.append(_sweep_vectorized(metric, 21 + level, kind,
                                         rng.randrange(1 << 30)))
    ops += [_sweep_generic(rng, 8 + level) for level in draw.cycle("generic-k", 3, 5)]
    ops += [_sweep_repeated(rng, REAL_POINT_METRICS[level])
            for level in draw.cycle("repeated-metric", 3, len(REAL_POINT_METRICS))]
    return ops


def _check_clean_sweep(report: dict, n: int) -> str | None:
    witness = report["asymmetry_witness"]
    return (_fail(report["passed"] is True, "clean sweep did not pass")
            or _fail(report["pairs_tested"] == n * n,
                     f"{report['pairs_tested']} pairs, expected {n * n}")
            or _fail(report["triples_tested"] == n ** 3,
                     f"{report['triples_tested']} triples, expected {n ** 3}")
            or _fail(witness is not None and len(witness) == 2
                     and not np.array_equal(witness[0], witness[1]),
                     "no asymmetry witness"))


def _sweep_vectorized(metric: str, n: int, kind: str, grid_seed: int) -> Op:
    # the real-point catalog metrics are asymmetric metrics on any set of
    # distinct reals, so the sweep passes and finds an asymmetric pair
    grid = f"lin:-2:2:{n}" if kind == "lin" else f"random:{n}"

    def check(out: Outcome) -> str | None:
        if out.rc != 0 or out.report is None:
            return f"exit {out.rc}, expected 0 with a report"
        return _check_clean_sweep(out.report, n)

    return Op("sweep-vectorized", check,
              ["check-axioms", "--metric", metric, "--grid", grid,
               "--seed-rng", str(grid_seed), "--report", REPORT])


def _sweep_generic(rng: random.Random, k: int) -> Op:
    # mult-op is the pointwise quasi-metric (1/2)(f-g)^+ + (g-f)^+, whose
    # triangle inequality holds sample by sample; distinct random functions
    # never sit at distance zero.
    m = rng.randint(16, 48)
    grid = np.linspace(0.0, 1.0, m)
    gen = np.random.default_rng(rng.randrange(1 << 30))
    functions = [gen.normal(size=m) for _ in range(k)]

    def call() -> Any:
        return qmetrics.check_axioms(qmetrics.mult_op(grid), functions)

    def check(out: Outcome) -> str | None:
        r = out.result
        return _check_clean_sweep(
            {"passed": r.passed, "pairs_tested": r.pairs_tested,
             "triples_tested": r.triples_tested,
             "asymmetry_witness": r.asymmetry_witness}, k)

    return Op("sweep-generic", check, api=call)


def _sweep_repeated(rng: random.Random, metric: str) -> Op:
    # points 0.05 apart or more, each repeated r times: every ordered pair of
    # copies of one point is a zero distance between distinct samples
    distinct = rng.sample([round(-2.0 + 0.05 * j, 2) for j in range(81)],
                          rng.randint(6, 10))
    reps = [rng.randint(1, 4) for _ in distinct]
    reps[0] = max(reps[0], 2)
    points = [p for p, r in zip(distinct, reps) for _ in range(r)]
    rng.shuffle(points)
    n = len(points)
    want = sum(r * (r - 1) for r in reps)

    def check(out: Outcome) -> str | None:
        if out.rc != 1 or out.report is None:
            return f"exit {out.rc}, expected 1 with a report"
        r = out.report
        ident = r["identity_violations"]
        return (_fail(len(ident) == want,
                      f"{len(ident)} identity violations, expected {want}")
                or _fail(all(v["kind"] == "zero-at-distinct-points" for v in ident),
                         "unexpected identity violation kind")
                or _fail(r["triangle_violations"] == [] and r["positivity_violations"] == [],
                         "triangle or positivity violations on repeated points")
                or _fail(r["triples_tested"] == n ** 3,
                         f"{r['triples_tested']} triples, expected {n ** 3}"))

    return Op("sweep-repeated", check,
              ["check-axioms", "--metric", metric,
               "--grid=" + ",".join(repr(p) for p in points),
               "--report", REPORT])


# ---------------------------------------------------------------------------
# solve: integral demo, Picard solves and convergence verdicts
# ---------------------------------------------------------------------------

#: (size bin, quadrature, rate bin) of the demo ops; every deck takes the
#: next four, so six decks cover them all once.
_DEMO_LEVELS = [(n, q, r) for n in range(4) for q in ("trapezoid", "midpoint-log")
                for r in range(3)]

#: (length bin, window bin) of the classify ops, cycled the same way.
_CLASSIFY_LEVELS = [(n, w) for n in range(4) for w in range(3)]


def _solve_deck(draw: Draw, setup_dir: str) -> list[Op]:
    rng = draw.rng
    ops = []
    for level in draw.cycle("demo", 4, len(_DEMO_LEVELS)):
        n_bin, quadrature, rate_bin = _DEMO_LEVELS[level]
        n = 1024 + n_bin * 768 + rng.randrange(769)
        rate = 0.10 + (rate_bin + rng.random()) * (0.45 - 0.10) / 3
        ops.append(_demo(n, quadrature, rate, rng.uniform(1.0, 6.0)))
    for regime in ("forward", "orbital"):
        ops += [_solve(setup_dir, regime, rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
                for _ in range(2)]
    for level in draw.cycle("classify", 4, len(_CLASSIFY_LEVELS)):
        n_bin, w_bin = _CLASSIFY_LEVELS[level]
        ops.append(_classify(rng.uniform(0.5, 3.0), 100 + 75 * n_bin + rng.randrange(76),
                             10 + 10 * w_bin + rng.randrange(11)))
    return ops


def _rank_one_sum(n: int, k: float, quadrature: str) -> float:
    """s = integral of g(y)/(y^2 + k) over (0, 1] in the demo's quadrature,
    for the identity g sampled at y_i = i/n, i = 1..n."""
    g = np.arange(1, n + 1) / n
    h = g / (g * g + k)
    if quadrature == "trapezoid":
        # trapezoids between samples, plus the cell [0, y_1] closed by the
        # line through the first two samples
        h0 = h[0] - g[0] * (h[1] - h[0]) / (g[1] - g[0])
        return float(np.sum(np.diff(g) * (h[1:] + h[:-1]) / 2.0)
                     + g[0] * (h0 + h[0]) / 2.0)
    # midpoint rule in u = ln y against du: cell edges halfway between the
    # log-samples, clipped to the first and last sample
    u = np.log(g)
    edges = np.concatenate(([u[0]], (u[1:] + u[:-1]) / 2.0, [u[-1]]))
    return float(np.sum(np.diff(edges) * h))


def _demo(n: int, quadrature: str, rate: float, k: float) -> Op:
    # (alpha, k) from the continuous rate alpha*arctan(1/sqrt k)/sqrt k.
    # T f = alpha <w/(g^2+k), f> g is rank one, so the orbit of f0 = g is
    # c_n g with c_n = (alpha s)^n.  The solver stops at the first n with
    # forward step (1/2)(c_{n-1} - c_n) <= tol, and the equation residual
    # is c_n (1 - alpha s) <= 2 alpha s tol, below tol for rates <= 1/2.
    rk = math.sqrt(k)
    alpha = rate * rk / math.atan(1.0 / rk)
    rho = alpha * _rank_one_sum(n, k, quadrature)
    steps, c_prev = [], 1.0
    while True:
        c = c_prev * rho
        steps.append(0.5 * (c_prev - c))
        if steps[-1] <= TOL:
            break
        c_prev = c
    iterations = len(steps)
    knife_edge = any(abs(s - TOL) <= 1e-6 * TOL for s in steps[-2:])
    residual = c * (1.0 - rho)

    def check(out: Outcome) -> str | None:
        if out.rc != 0 or out.report is None:
            return f"exit {out.rc}, expected 0 with a report"
        r = out.report
        solver = r["solver"] or {}
        its = solver.get("iterations")
        return (_fail(r["regime"] == "contractive", f"regime {r['regime']}")
                or _fail(its == iterations or (knife_edge and its in (iterations - 1, iterations + 1)),
                         f"{its} iterations, closed form gives {iterations}")
                or _fail(r["equation_residual"] <= TOL,
                         f"equation residual {r['equation_residual']!r} above tol")
                or _fail(abs(r["equation_residual"] - residual) <= 1e-6 * residual,
                         f"equation residual {r['equation_residual']!r}, "
                         f"closed form gives {residual!r}"))

    return Op("demo-integral", check,
              ["demo-integral", "--alpha", repr(alpha), "--k", repr(k),
               "--grid", str(n), "--quadrature", quadrature,
               "--report", REPORT])


def _solve(setup_dir: str, regime: str, seed: float) -> Op:
    # x_n = x0 / 4^n; both argument orders of the step from x_{n-1} have
    # norm at most (3/4)|x_{n-1}| (the scaled split shrinks one order by
    # beta <= 1), so the solve stops at the first n with (3/4)|x0|/4^(n-1)
    # <= tol, at a point within tol/3 of the fixed point 0.
    metric = "mat2-split-scaled" if regime == "forward" else "mat2-split"
    n = 1
    while 0.75 * abs(seed) / 4.0 ** (n - 1) > TOL:
        n += 1
    knife_edge = abs(0.75 * abs(seed) / 4.0 ** (n - 1) - TOL) <= 1e-6 * TOL

    def check(out: Outcome) -> str | None:
        if out.rc != 0 or out.report is None:
            return f"exit {out.rc}, expected 0 with a report"
        r = out.report
        return (_fail(r["fixed_point_certified"] is True and r["converged"] is True,
                      "fixed point not certified")
                or _fail(abs(r["fixed_point"]) <= TOL,
                         f"fixed point {r['fixed_point']!r} is not within tol of 0")
                or _fail(r["iterations"] == n or (knife_edge and r["iterations"] in (n - 1, n + 1)),
                         f"{r['iterations']} iterations, expected {n}"))

    return Op(f"solve-{regime}", check,
              ["solve", "--map", "linear-quarter", "--metric", metric,
               "--seed", repr(seed), "--cert", f"{setup_dir}/cert-{regime}.json",
               "--report", REPORT])


def _classify(x: float, n: int, window: int) -> Op:
    # x_i = x (1 + 1/i) falls to x from above: under scalar-forward-one
    # d(x, x_i) = x/i, at most x/(n - window + 1) on the tail, while
    # d(x_i, x) = 1 everywhere.  eps sits between the two.
    eps = 2.0 * x / (n - window + 1)

    def check(out: Outcome) -> str | None:
        if out.rc != 0 or out.report is None:
            return f"exit {out.rc}, expected 0 with a report"
        r = out.report
        return (_fail(r["forward"] == "converges", f"forward {r['forward']}")
                or _fail(r["backward"] == "diverges", f"backward {r['backward']}"))

    return Op("classify", check,
              ["classify", "--metric", "scalar-forward-one",
               "--seq", f"harmonic:{x!r}:{n}", "--candidate", repr(x),
               "--eps", repr(eps), "--window", str(window),
               "--report", REPORT])


_BUILDERS: dict[str, Callable[[Draw, str], list[Op]]] = {
    "certify": _certify_deck,
    "axioms": _axioms_deck,
    "solve": _solve_deck,
}
