"""Command-line front end.

Subcommands: check-axioms, classify, certify, solve, demo-integral, gallery.
Exit codes follow the usual convention: 0 on success, 1 when a violation or
failure was found, 2 on usage errors.  Every emitted JSON report embeds a
run manifest (resolved configuration, input hashes, package version,
timestamp); re-running the same configuration reproduces the report
byte-for-byte up to the timestamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, integral
from .algebra import AlgebraError, NormKind, OrderKind, element_from_json
from .contraction import (
    CoefficientNormTooLarge,
    NotInCommutant,
    Regime,
    certificate_from_json,
    search_scalar_coefficient,
    verify,
)
from .convergence import WindowTooLarge, classify, trace
from .gallery import run_gallery
from .maps import CATALOG as MAP_CATALOG
from .maps import MapSpec, from_table
from .metrics import CATALOG as METRIC_CATALOG
from .metrics import DomainMismatch, MetricSpec, check_axioms, distance_norm
from .solver import (
    BoundMode,
    CertificateInvalid,
    RateNotLessThanOne,
    SolverConfig,
    picard_solve,
)

OUT_DIR_ENV = "QUASIFIX_OUT_DIR"


# ---------------------------------------------------------------------------
# manifest and report plumbing
# ---------------------------------------------------------------------------

def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def build_manifest(command: str, config: dict,
                   file_inputs: dict[str, Path] | None = None) -> dict:
    hashes = {"config": hashlib.sha256(
        _canonical_json(config).encode()).hexdigest()}
    for label, path in (file_inputs or {}).items():
        hashes[label] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {
        "command": command,
        "config": config,
        "input_hashes": hashes,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_out(path: str, out_dir: str | None) -> Path:
    p = Path(path)
    if p.is_absolute():
        return p
    base = out_dir or os.environ.get(OUT_DIR_ENV)
    return (Path(base) / p) if base else p


def _write_report(path: str | None, manifest: dict, report: dict,
                  out_dir: str | None) -> None:
    if path is None:
        return
    payload = json.dumps({"manifest": manifest, "report": report},
                         sort_keys=True, indent=2) + "\n"
    target = _resolve_out(path, out_dir)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(payload, encoding="utf-8")


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _parse_grid(spec: str, rng: np.random.Generator) -> np.ndarray:
    if spec.startswith("lin:"):
        _, lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    if spec.startswith("random:"):
        parts = spec.split(":")
        n = int(parts[1])
        lo = float(parts[2]) if len(parts) > 2 else -2.0
        hi = float(parts[3]) if len(parts) > 3 else 2.0
        return np.sort(rng.uniform(lo, hi, size=n))
    if "," in spec:
        return np.asarray([float(v) for v in spec.split(",")])
    return np.linspace(-2.0, 2.0, int(spec))


def _parse_seq(spec: str) -> list[float]:
    if spec.startswith("@"):
        with open(spec[1:], newline="") as fh:
            return [float(row[0]) for row in csv.reader(fh) if row]
    if spec.startswith("harmonic:"):
        _, x, n = spec.split(":")
        return [float(x) * (1.0 + 1.0 / i) for i in range(1, int(n) + 1)]
    if spec.startswith("geom:"):
        _, x0, ratio, n = spec.split(":")
        return [float(x0) * float(ratio) ** i for i in range(int(n))]
    return [float(v) for v in spec.split(",")]


def _build_metric(args: argparse.Namespace) -> MetricSpec:
    name = args.metric
    if name not in METRIC_CATALOG:
        raise SystemExit(f"unknown metric {name!r}; "
                         f"choose from {sorted(METRIC_CATALOG)}")
    if name == "mat2-split-scaled":
        spec = METRIC_CATALOG[name](beta=args.beta)
    elif name == "periodic-fn":
        spec = METRIC_CATALOG[name](period=args.period, grid_size=args.t_grid)
    elif name == "mult-op":
        spec = METRIC_CATALOG[name](integral.uniform_grid(args.fn_grid))
    else:
        spec = METRIC_CATALOG[name]()
    if args.norm is not None:
        spec = dataclasses.replace(spec, norm=NormKind(args.norm))
    if args.order is not None:
        spec = dataclasses.replace(spec, order=OrderKind(args.order))
    return spec


def _build_map(name: str) -> MapSpec:
    if name.startswith("table:"):
        with open(name[len("table:"):], encoding="utf-8") as fh:
            raw = json.load(fh)
        return from_table({float(k): float(v) for k, v in raw.items()})
    if name not in MAP_CATALOG:
        raise SystemExit(f"unknown map {name!r}; "
                         f"choose from {sorted(MAP_CATALOG)} or table:<file>")
    return MAP_CATALOG[name]()


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _common_config(args: argparse.Namespace, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check_axioms(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed_rng)
    spec = _build_metric(args)
    pts = _parse_grid(args.grid, rng)
    report = check_axioms(spec, pts, tol=args.tol)
    print(f"metric {spec.name}: {report.pairs_tested} pairs, "
          f"{report.triples_tested} triples")
    print(f"  positivity violations : {len(report.positivity_violations)}")
    print(f"  identity violations   : {len(report.identity_violations)}")
    print(f"  triangle violations   : {len(report.triangle_violations)}")
    witness = report.asymmetry_witness
    print(f"  asymmetry witness     : {witness}")
    config = _common_config(args, ["metric", "grid", "tol", "seed_rng"])
    manifest = build_manifest("check-axioms", config)
    _write_report(args.report, manifest, report.to_json_dict(), args.out_dir)
    return 0 if report.passed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _build_metric(args)
    seq = _parse_seq(args.seq)
    verdict = classify(seq, args.candidate, spec, args.eps, args.window)
    print(f"forward          : {verdict.forward.value}")
    print(f"backward         : {verdict.backward.value}")
    print(f"forward cauchy   : {verdict.forward_cauchy.value}")
    print(f"backward cauchy  : {verdict.backward_cauchy.value}")
    if args.trace:
        data = trace(seq, spec, candidate=args.candidate)
        target = _resolve_out(args.trace, args.out_dir)
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "x_n", "fwd_dist", "bwd_dist"])
            for n, x in enumerate(data.points):
                writer.writerow([n, x, data.forward_dists[n],
                                 data.backward_dists[n]])
    config = _common_config(
        args, ["metric", "seq", "candidate", "eps", "window"])
    manifest = build_manifest("classify", config)
    _write_report(args.report, manifest, verdict.to_json_dict(), args.out_dir)
    return 0


_REGIMES = {
    "forward": Regime.FORWARD_GLOBAL,
    "backward": Regime.BACKWARD_GLOBAL,
    "orbital": Regime.ORBITAL,
    "two-step": Regime.TWO_STEP,
}


def _cmd_certify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed_rng)
    spec = _build_metric(args)
    map_spec = _build_map(args.map)
    regime = _REGIMES[args.regime]
    pairs = None
    if regime in (Regime.FORWARD_GLOBAL, Regime.BACKWARD_GLOBAL):
        grid = _parse_grid(args.grid, rng)
        pairs = [(x, y) for x in grid for y in grid]
    if args.search:
        cert = search_scalar_coefficient(
            map_spec, spec, regime, pairs=pairs, seed=args.seed,
            orbit_len=args.orbit_len, tol=args.tol)
        if cert is None:
            print("no scalar certificate exists below the regime cap",
                  file=sys.stderr)
            return 1
    else:
        if args.a is None:
            print("either --a or --search is required", file=sys.stderr)
            return 2
        cert = verify(regime, map_spec, spec,
                      element_from_json(json.loads(args.a)), pairs=pairs,
                      seed=args.seed, orbit_len=args.orbit_len, tol=args.tol)
    print(f"regime {cert.regime.value}: coefficient norm {cert.a_norm:.9f}, "
          f"{cert.samples_checked} samples, "
          f"{len(cert.violations)} violations")
    config = _common_config(
        args, ["map", "metric", "regime", "search", "a", "grid", "seed",
               "orbit_len", "tol"])
    manifest = build_manifest("certify", config)
    _write_report(args.out, manifest, cert.to_json_dict(), args.out_dir)
    return 0 if cert.valid else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _build_metric(args)
    map_spec = _build_map(args.map)
    cert_path = Path(args.cert)
    payload = json.loads(cert_path.read_text(encoding="utf-8"))
    cert = certificate_from_json(payload.get("report", payload))
    mode = BoundMode.ONE_SIDED if cert.regime is Regime.TWO_STEP \
        else BoundMode.SANDWICH
    cfg = SolverConfig(max_iter=args.max_iter, tol=args.tol, bound_mode=mode)
    report = picard_solve(map_spec, spec, args.seed, cert, cfg)
    print(f"fixed point {report.fixed_point!r} after {report.iterations} "
          f"iterations (converged: {report.converged})")
    print(f"residuals: forward {report.residual_forward:.3e}, "
          f"backward {report.residual_backward:.3e}")
    print(f"bound envelope ok: {report.bound_envelope_ok}; "
          f"certified: {report.fixed_point_certified}")
    if args.trace:
        report.trace.write_csv(_resolve_out(args.trace, args.out_dir),
                               report.predicted_bounds)
    config = _common_config(args, ["map", "metric", "seed", "tol", "max_iter"])
    manifest = build_manifest("solve", config, {"cert": cert_path})
    _write_report(args.report, manifest, report.to_json_dict(), args.out_dir)
    return 0 if report.fixed_point_certified else 1


def _cmd_demo_integral(args: argparse.Namespace) -> int:
    prob = integral.make_problem(
        args.alpha, args.k, n=args.grid_size,
        quadrature=integral.QuadratureKind(args.quadrature))
    report = integral.regime_report(prob)
    print(f"rate {report.rate:.6f}, growth {report.growth:.6f}, "
          f"regime {report.regime}")
    status = 0
    if report.regime == integral.REGIME_NOT_CONTRACTIVE:
        status = 1
    else:
        report = integral.run_demo(prob, SolverConfig(tol=args.tol, max_iter=200))
        print(f"solver: {report.solver}")
        print(f"equation residual {report.equation_residual:.3e}")
        if report.equation_residual > args.tol:
            status = 1
        if args.solution:
            target = _resolve_out(args.solution, args.out_dir)
            with open(target, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "f_star"])
                for x, fx in zip(prob.grid_array, report.solution):
                    writer.writerow([x, fx])
    config = _common_config(
        args, ["alpha", "k", "grid_size", "tol", "quadrature"])
    manifest = build_manifest("demo-integral", config)
    _write_report(args.report, manifest, report.to_json_dict(), args.out_dir)
    return status


def _cmd_gallery(args: argparse.Namespace) -> int:
    return run_gallery()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--norm", choices=[k.value for k in NormKind],
                        default=None, help="override the metric's norm kind")
    common.add_argument("--order", choices=[k.value for k in OrderKind],
                        default=None, help="override the metric's order kind")
    common.add_argument("--seed-rng", type=int, default=0, dest="seed_rng",
                        help="seed for any sampled grids")
    common.add_argument("--out-dir", default=None, dest="out_dir",
                        help=f"base directory for outputs (default ${OUT_DIR_ENV})")

    metric_opts = argparse.ArgumentParser(add_help=False)
    metric_opts.add_argument("--metric", required=True)
    metric_opts.add_argument("--beta", type=float, default=0.25)
    metric_opts.add_argument("--period", type=float, default=1.0)
    metric_opts.add_argument("--t-grid", type=int, default=64, dest="t_grid")
    metric_opts.add_argument("--fn-grid", type=int, default=64, dest="fn_grid")

    parser = argparse.ArgumentParser(
        prog="quasifix",
        description="asymmetric operator-valued metrics, certificates, and "
                    "fixed-point solving")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", parents=[common, metric_opts],
                       help="sweep metric axioms over a sample grid")
    p.add_argument("--grid", default="41")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("classify", parents=[common, metric_opts],
                       help="forward/backward convergence verdicts")
    p.add_argument("--seq", required=True)
    p.add_argument("--candidate", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", parents=[common, metric_opts],
                       help="verify or search a contraction certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--regime", choices=sorted(_REGIMES), required=True)
    p.add_argument("--a", default=None, help="coefficient element as JSON")
    p.add_argument("--search", action="store_true")
    p.add_argument("--grid", default="21")
    p.add_argument("--seed", type=float, default=1.0)
    p.add_argument("--orbit-len", type=_int_at_least(2), default=30,
                   dest="orbit_len")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("solve", parents=[common, metric_opts],
                       help="Picard iteration under a certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--seed", type=float, required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--max-iter", type=_int_at_least(1), default=1000,
                   dest="max_iter")
    p.add_argument("--trace", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("demo-integral", parents=[common],
                       help="discretized integral-equation demo")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--k", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=2048, dest="grid_size")
    p.add_argument("--quadrature",
                   choices=[k.value for k in integral.QuadratureKind],
                   default="trapezoid")
    p.add_argument("--report", default=None)
    p.add_argument("--solution", default=None)
    p.set_defaults(func=_cmd_demo_integral)

    p = sub.add_parser("gallery", parents=[common],
                       help="run the worked-example fixtures")
    p.set_defaults(func=_cmd_gallery)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    # the solvers stop once a step distance is at most --tol (0 may never be
    # reached); check-axioms compares with a tolerance of 0 just fine
    if args.command in ("solve", "demo-integral") and not args.tol > 0:
        parser.error(f"argument --tol: must be positive, got {args.tol}")
    try:
        return args.func(args)
    except (AlgebraError, DomainMismatch, WindowTooLarge, CertificateInvalid,
            CoefficientNormTooLarge, NotInCommutant, RateNotLessThanOne,
            integral.GridMismatch, integral.NotContractive) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
