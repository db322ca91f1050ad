"""Command-line front end.

Subcommands: check-axioms, classify, certify, solve, demo-integral, gallery.
Each subcommand accepts only the options it reads, and each option's
argparse ``type`` checks its value.  Exit codes follow the usual
convention: 0 on success, 1 when a violation or failure was found, an
input file cannot be read or an output file cannot be written, 2 on usage
errors; every error the package raises (``QuasifixError``) is one
``error:`` line on stderr, never a traceback.  An output path is taken
relative to ``--out-dir`` (default ``$QUASIFIX_OUT_DIR``), and its missing
directories are created.  Every emitted JSON report embeds a run manifest:
the configuration, which is every option the subcommand accepts as parsed
except the output paths and ``--cert``; the hashes of that configuration
and of every input file (the ``--cert`` file, a ``table:`` map file, an
``@`` sequence file), each read once and hashed from the bytes the run
parsed; the package version; and a timestamp.  Re-running the same
configuration on the same files reproduces the report byte-for-byte up to
the timestamp.  A ``solve`` takes only a ``certify`` report whose manifest
records its map and metric.

The report text is ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
newline, byte for byte, written by ``_json_text`` without ``json``'s
pure-Python encoder; a change to the writer must keep those bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import os
import sys
from datetime import datetime, timezone
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, integral
from .algebra import AlgebraElement, NormKind, OrderKind, QuasifixError, element_from_json
from .contraction import (
    CertificateInvalid,
    ContractionCertificate,
    Regime,
    certificate_from_json,
    search_scalar_coefficient,
    verify,
)
from .convergence import classify
from .gallery import run_gallery
from .maps import CATALOG as MAP_CATALOG
from .maps import MapSpec, from_table
from .metrics import CATALOG as METRIC_CATALOG
from .metrics import MULT_OP, MetricSpec, check_axioms
from .solver import SolverConfig, picard_solve

OUT_DIR_ENV = "QUASIFIX_OUT_DIR"

#: The catalog metrics whose points are reals, the only points the CLI
#: parses (mult-op takes sampled functions and is reachable from the API).
_REAL_POINT_METRICS = [name for name in METRIC_CATALOG if name != MULT_OP]

#: Parsed names that are not part of a run's configuration: the subcommand's
#: plumbing, where outputs go, ``--cert``, which is recorded by its hash, and
#: the hashes of the input files themselves.
_NOT_CONFIG = frozenset({"command", "func", "out_dir", "report", "trace",
                         "solution", "cert", "input_hashes"})

#: The options that fix a run's map and metric, which a ``solve`` and the
#: ``certify`` run of its certificate share.
_CERTIFIED_OPTIONS = ("map", "metric", "beta", "period", "t_grid", "norm", "order")


class FileError(QuasifixError):
    """A file named on the command line cannot be read or written, or does
    not hold what its option expects."""


# ---------------------------------------------------------------------------
# manifest and report plumbing
# ---------------------------------------------------------------------------

def build_manifest(args: argparse.Namespace) -> dict:
    """The run manifest of ``args``, whose ``input_hashes`` holds the hash
    of every input file ``_read_input`` has read."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    hashes = {"config": hashlib.sha256(canonical.encode()).hexdigest(), **args.input_hashes}
    return {
        "command": args.command,
        "config": config,
        "input_hashes": hashes,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, a chain
    of generators per container.  This writer appends the same pieces to one
    list: strings through the encoder's own ASCII escaper, floats through
    ``float.__repr__`` (NaN and the infinities spelled as ``json`` spells
    them), keys sorted as ``json`` sorts them.  A report repeats few
    distinct floats (grid points, distance norms), so each text is made once
    per call.  It raises what ``json.dumps`` raises for what it refuses.

    A list of flat dicts -- a certificate's violations -- is written by
    column (``_append_rows``) when every row is a dict with the first row's
    ``str`` keys and only ``float`` or ``str`` values: the texts of each
    key's column are made in one pass over its values, or over its distinct
    values where they repeat (``_column_texts``), and the rows' pieces, key
    texts and value texts in turn, are joined once.  Any other list is
    written element by element.
    """
    out: list[str] = []
    _append_json(obj, "\n", out, set(), {})
    return "".join(out)


#: ``float.__repr__`` of the floats that JSON spells otherwise.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _append_json(o: Any, newline: str, out: list[str], open_ids: set,
                 floats: dict) -> None:
    """Append the JSON text of ``o`` at the indent that ``newline`` ends
    with.  ``open_ids`` holds the containers being written around it, and
    ``floats`` the float texts made so far."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, dict)):
        is_dict = isinstance(o, dict)
        if not o:
            out.append("{}" if is_dict else "[]")
            return
        if id(o) in open_ids:
            raise ValueError("Circular reference detected")
        inner = newline + "  "
        if not is_dict and type(o[0]) is dict and _append_rows(o, inner, out):
            out.append(newline + "]")
            return
        open_ids.add(id(o))
        sep = ("{" if is_dict else "[") + inner
        for key, value in sorted(o.items()) if is_dict else enumerate(o):
            if is_dict:
                sep += (encode_basestring_ascii(key) if type(key) is str
                        else _key_text(key)) + ": "
            # the leaves a report is made of, written in place
            cls = type(value)
            if cls is float and value:  # 0.0 == -0.0, but the texts differ
                text = floats.get(value)
                if text is None:
                    text = floats[value] = _float_text(value)
                out.append(sep + text)
            elif cls is str:
                out.append(sep + encode_basestring_ascii(value))
            else:
                out.append(sep)
                _append_json(value, inner, out, open_ids, floats)
            sep = "," + inner
        out.append(newline + ("}" if is_dict else "]"))
        open_ids.remove(id(o))
    else:
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")


def _append_rows(rows: list | tuple, inner: str, out: list[str]) -> bool:
    """Append the JSON text of ``rows`` up to its closing bracket, which
    ``inner`` indents one level deeper than, and return True; or append
    nothing and return False when some row is not a dict with the first
    row's ``str`` keys and only ``float`` or ``str`` values."""
    first = rows[0]
    if not first or any(type(key) is not str or type(value) not in (float, str)
                        for key, value in first.items()):
        return False
    keys = sorted(first)
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return False
    try:  # a row of the right length that lacks a key has another key
        columns = [list(map(operator.itemgetter(key), rows)) for key in keys]
    except KeyError:
        return False
    texts = list(map(_column_texts, columns))
    if None in texts:
        return False
    # the rows' pieces, joined once: before each text its key, and before a
    # row's first key the end of the row before it
    heads = ["," + inner + "  " + encode_basestring_ascii(key) + ": " for key in keys]
    opening = "{" + heads[0][1:]
    heads[0] = inner + "}," + inner + opening
    width = 2 * len(keys)
    pieces = [""] * (width * len(rows))
    for j, column_texts in enumerate(texts):
        pieces[2 * j::width] = [heads[j]] * len(rows)
        pieces[2 * j + 1::width] = column_texts
    pieces[0] = "[" + inner + opening
    out.append("".join(pieces) + inner + "}")
    return True


def _column_texts(values: list) -> list[str] | None:
    """The JSON texts of one column of row values, or None when the column
    is not all ``float`` or all ``str``.

    A float column's texts are ``float.__repr__`` of its values, respelled
    where a value is not finite, as the column's sum shows.  When at most
    half of its values are distinct (grid points, the norms of a ``lin:``
    grid's distances), the text of each distinct value is made once and
    looked up in one table.  That table holds one text for 0.0 == -0.0, so
    a column with zeros of both signs writes its zeros one by one; each
    NaN object is a key of its own.
    """
    types = set(map(type, values))
    if types == {str}:
        return list(map(encode_basestring_ascii, values))
    if types != {float}:
        return None
    distinct = set(values)
    if 2 * len(distinct) > len(values):
        texts = list(map(float.__repr__, values))
    else:
        table = dict(zip(distinct, map(float.__repr__, distinct)))
        texts = list(map(table.__getitem__, values))
        if 0.0 in table and len(set(map(math.copysign, repeat(1.0),
                                         filter(operator.not_, values)))) > 1:
            texts = [text if value else float.__repr__(value)
                     for value, text in zip(values, texts)]
    if not math.isfinite(sum(values)):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _key_text(key: Any) -> str:
    """A dict key as ``json`` writes it: a str, or the text of a float,
    bool, None or int key, quoted."""
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _float_text(key)
    elif key is True or key is False or key is None:
        text = "null" if key is None else "true" if key else "false"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return encode_basestring_ascii(text)


def _write_output(path: str, text: str, out_dir: str | None) -> None:
    """Write ``text`` as it is to ``path``, taken relative to ``out_dir``
    or else ``$QUASIFIX_OUT_DIR``, after creating its missing directories;
    every output file of a run is written here.  A path that cannot be
    written raises ``FileError``."""
    target = Path(out_dir or os.environ.get(OUT_DIR_ENV) or "") / path
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileError(f"cannot write {target}: {type(exc).__name__}: {exc}") from None


def _csv_text(rows: Any) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _read_input(args: argparse.Namespace, key: str, path: str,
                parse: Callable[[str], Any]) -> Any:
    """``parse`` applied to the text of the file at ``path``, which is read
    once: the sha256 of its bytes goes to the run's manifest under ``key``
    (``cert``, ``map`` or ``seq``) before ``parse`` runs.  A missing file,
    or one ``parse`` cannot read, raises ``FileError``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        args.input_hashes[key] = hashlib.sha256(data).hexdigest()
        return parse(data.decode("utf-8"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FileError(f"cannot read {path}: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# argument types and parsers
# ---------------------------------------------------------------------------

def _bounded(kind: type, low: float | None = None, *, strict: bool = False):
    """argparse type: a finite ``kind`` value, at least ``low`` (above it
    when ``strict``) unless ``low`` is None."""
    rule = "" if low is None else f" {'above' if strict else 'at least'} {low:g}"

    def number(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (low is None or value > low
                                          or value == low and not strict)):
            raise argparse.ArgumentTypeError(
                f"must be a finite {kind.__name__}{rule}, got {text}")
        return value
    number.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return number


#: ``--tol``: check-axioms and certify compare with a tolerance of 0 just
#: fine, but a negative one turns every comparison against what it checks;
#: the solvers stop once a step is at most ``--tol``, which 0 may never meet.
_NON_NEGATIVE = _bounded(float, 0.0)
_POSITIVE = _bounded(float, 0.0, strict=True)


class _Typed(str):
    """An option's text as typed, which the manifest records; ``parsed`` is
    what its check made of it, which the command reads."""


def _checked_by(parse: Callable[[str], Any], name: str):
    """argparse type: the text as typed, as a ``_Typed`` whose ``parsed`` is
    what ``parse`` returns for it; argparse reports a ``ValueError`` from
    ``parse`` as an invalid ``name`` value."""
    def text_as_typed(text: str) -> _Typed:
        typed = _Typed(text)
        typed.parsed = parse(text)
        return typed
    text_as_typed.__name__ = name
    return text_as_typed


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"a count must not be negative, got {n}")
    return n


def _grid_points(spec: str) -> tuple[int, Callable[[int], np.ndarray]]:
    """The number of points of a ``--grid`` spec, and a function of the
    ``--seed-rng`` seed that gives them; a malformed spec raises
    ``ValueError``."""
    if spec.startswith("lin:"):
        _, lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), _count(n)
    elif spec.startswith("random:"):
        _, n, *bounds = spec.split(":")
        n = _count(n)
        lo, hi = map(float, bounds + ["-2.0", "2.0"][len(bounds):])
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError(f"bounds must be finite and ordered, got {lo}, {hi}")
        return n, lambda seed: np.sort(np.random.default_rng(seed).uniform(lo, hi, size=n))
    elif "," in spec:
        points = np.asarray([float(v) for v in spec.split(",")])
        return len(points), lambda seed: points
    else:
        lo, hi, n = -2.0, 2.0, _count(spec)
    return n, lambda seed: np.linspace(lo, hi, n)


def _nonempty_grid(spec: str) -> tuple[int, Callable[[int], np.ndarray]]:
    """A certify ``--grid``: a global certificate checks every pair of its
    points, and one with no point would certify any map."""
    n, draw = _grid_points(spec)
    if not n:
        raise argparse.ArgumentTypeError(
            f"a certificate needs at least one grid point, got {spec!r}")
    return n, draw


def _seq_points(spec: str) -> list[float]:
    """The points of an inline ``--seq`` spec; a malformed one raises
    ``ValueError``."""
    if spec.startswith("harmonic:"):
        _, x, n = spec.split(":")
        return [float(x) * (1.0 + 1.0 / i) for i in range(1, _count(n) + 1)]
    if spec.startswith("geom:"):
        _, x0, ratio, n = spec.split(":")
        try:
            return [float(x0) * float(ratio) ** i for i in range(_count(n))]
        except OverflowError:
            raise ValueError("the sequence overflows") from None
    return [float(v) for v in spec.split(",")]


def _coefficient(text: str) -> AlgebraElement:
    """The element ``--a`` holds as JSON; ``ValueError`` when it holds none."""
    try:
        return element_from_json(json.loads(text))
    except (KeyError, AttributeError) as exc:
        raise ValueError(f"not an element: {exc!r}") from None


def _check_map(name: str) -> None:
    if name not in MAP_CATALOG and not name.startswith("table:"):
        raise argparse.ArgumentTypeError(
            f"unknown map {name!r}; choose from {sorted(MAP_CATALOG)} or table:FILE")


def _build_metric(args: argparse.Namespace) -> MetricSpec:
    name = args.metric
    if name == "mat2-split-scaled":
        spec = METRIC_CATALOG[name](beta=args.beta)
    elif name == "periodic-fn":
        spec = METRIC_CATALOG[name](period=args.period, grid_size=args.t_grid)
    else:
        spec = METRIC_CATALOG[name]()
    if args.norm is not None:
        spec = dataclasses.replace(spec, norm=NormKind(args.norm))
    if args.order is not None:
        spec = dataclasses.replace(spec, order=OrderKind(args.order))
    return spec


def _build_map(args: argparse.Namespace) -> MapSpec:
    if args.map.startswith("table:"):
        return _read_input(args, "map", args.map[len("table:"):], lambda text: from_table(
            {float(k): float(v) for k, v in json.loads(text).items()}))
    return MAP_CATALOG[args.map]()


def _certified(args: argparse.Namespace, payload: Any, map_spec: MapSpec,
               metric: MetricSpec) -> ContractionCertificate:
    """The certificate of the ``certify`` report ``payload`` bound to
    ``map_spec`` and ``metric``.  The report's manifest must record the
    run's ``_CERTIFIED_OPTIONS`` and map table, or ``CertificateInvalid``
    names the first that differs."""
    if "manifest" not in payload:
        raise CertificateInvalid(
            f"{args.cert} holds no run manifest: solve reads certify reports")
    recorded = payload["manifest"]
    for key in _CERTIFIED_OPTIONS:
        theirs, ours = recorded["config"].get(key), getattr(args, key)
        if theirs != ours:  # None: the option was not given
            raise CertificateInvalid(f"{args.cert} was certified with "
                                     f"--{key.replace('_', '-')} {theirs}, not {ours}")
    if recorded["input_hashes"].get("map") != args.input_hashes.get("map"):
        raise CertificateInvalid(
            f"{args.cert} certifies another table than --map {args.map}")
    return certificate_from_json(payload["report"], map_spec, metric)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check_axioms(args: argparse.Namespace) -> tuple[int, dict]:
    spec = _build_metric(args)
    _, draw = args.grid.parsed
    pts = draw(args.seed_rng)
    report = check_axioms(spec, pts, tol=args.tol)
    print(f"metric {spec.name}: {report.pairs_tested} pairs, "
          f"{report.triples_tested} triples")
    print(f"  positivity violations : {len(report.positivity_violations)}")
    print(f"  identity violations   : {len(report.identity_violations)}")
    print(f"  triangle violations   : {len(report.triangle_violations)}")
    witness = report.asymmetry_witness
    if witness is not None:  # numpy scalars print by numpy version
        witness = tuple(float(p) for p in witness)
    print(f"  asymmetry witness     : {witness}")
    return (0 if report.passed else 1), report.to_json_dict()


def _cmd_classify(args: argparse.Namespace) -> tuple[int, dict]:
    spec = _build_metric(args)
    if args.seq.startswith("@"):  # the first CSV column
        seq = _read_input(args, "seq", args.seq[1:], lambda text: [
            float(row[0]) for row in csv.reader(io.StringIO(text, newline="")) if row])
    else:
        seq = args.seq.parsed
    verdict = classify(seq, args.candidate, spec, args.eps, args.window)
    print(f"forward          : {verdict.forward.value}")
    print(f"backward         : {verdict.backward.value}")
    print(f"forward cauchy   : {verdict.forward_cauchy.value}")
    print(f"backward cauchy  : {verdict.backward_cauchy.value}")
    if args.trace:
        rows = zip(range(len(seq)), seq, verdict.forward_dists, verdict.backward_dists)
        _write_output(args.trace, _csv_text([["n", "x_n", "fwd_dist", "bwd_dist"], *rows]),
                      args.out_dir)
    return 0, verdict.to_json_dict()


_REGIMES = {
    "forward": Regime.FORWARD_GLOBAL,
    "backward": Regime.BACKWARD_GLOBAL,
    "orbital": Regime.ORBITAL,
    "two-step": Regime.TWO_STEP,
}


def _cmd_certify(args: argparse.Namespace) -> tuple[int, dict | None]:
    spec = _build_metric(args)
    map_spec = _build_map(args)
    regime = _REGIMES[args.regime]
    points = None
    if regime.is_global:
        _, draw = args.grid.parsed
        points = draw(args.seed_rng)
    if args.search:
        cert = search_scalar_coefficient(
            map_spec, spec, regime, points=points, seed=args.seed,
            orbit_len=args.orbit_len, tol=args.tol)
        if cert is None:
            print("no scalar certificate exists below the regime cap",
                  file=sys.stderr)
            return 1, None
    else:
        cert = verify(regime, map_spec, spec, args.a.parsed, points=points,
                      seed=args.seed, orbit_len=args.orbit_len, tol=args.tol)
    print(f"regime {cert.regime.value}: coefficient norm {cert.a_norm:.9f}, "
          f"{cert.samples_checked} samples, "
          f"{len(cert.violations)} violations")
    return (0 if cert.valid else 1), cert.to_json_dict()


def _cmd_solve(args: argparse.Namespace) -> tuple[int, dict]:
    spec = _build_metric(args)
    map_spec = _build_map(args)
    cert = _read_input(args, "cert", args.cert,
                       lambda text: _certified(args, json.loads(text), map_spec, spec))
    cfg = SolverConfig(max_iter=args.max_iter, tol=args.tol)
    report = picard_solve(cert, args.seed, cfg)
    print(f"fixed point {report.fixed_point!r} after {report.iterations} "
          f"iterations (converged: {report.converged})")
    print(f"residuals: forward {report.residual_forward:.3e}, "
          f"backward {report.residual_backward:.3e}")
    if report.failing_samples:
        print(f"walked samples failing the certificate: {report.failing_samples} "
              f"of {report.iterations}")
    print(f"bound envelope ok: {report.bound_envelope_ok}; "
          f"certified: {report.fixed_point_certified}")
    if args.trace:
        _write_output(args.trace, _csv_text(report.trace.rows(report.predicted_bounds)),
                      args.out_dir)
    return (0 if report.fixed_point_certified else 1), report.to_json_dict()


def _cmd_demo_integral(args: argparse.Namespace) -> tuple[int, dict]:
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
        integral.run_demo(prob, SolverConfig(tol=args.tol, max_iter=200), report)
        print(f"solver: {report.solver}")
        print(f"equation residual {report.equation_residual:.3e}")
        if report.equation_residual > args.tol:
            status = 1
        if args.solution:
            _write_output(args.solution, _csv_text(
                [["x", "f_star"], *zip(prob.grid, report.solution.tolist())]), args.out_dir)
    return status, report.to_json_dict()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps its state
    in the returned namespace, so one parser serves every ``main`` call.
    Each subcommand declares exactly the options it reads."""
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out-dir", default=None, dest="out_dir",
                         help=f"base directory for outputs (default ${OUT_DIR_ENV})")

    metric_opts = argparse.ArgumentParser(add_help=False)
    metric_opts.add_argument("--metric", required=True, choices=_REAL_POINT_METRICS,
                             help="catalog metric between real points")
    metric_opts.add_argument("--beta", type=_bounded(float), default=0.25)
    metric_opts.add_argument("--period", type=_POSITIVE, default=1.0)
    metric_opts.add_argument("--t-grid", type=_bounded(int, 2), default=64,
                             dest="t_grid")
    metric_opts.add_argument("--norm", choices=[k.value for k in NormKind],
                             default=None, help="override the metric's norm kind")
    metric_opts.add_argument("--order", choices=[k.value for k in OrderKind],
                             default=None, help="override the metric's order kind")

    grid_type = _checked_by(lambda spec: _grid_points(spec), "grid")
    grid_help = ("N points on [-2, 2], lin:LO:HI:N, random:N[:LO[:HI]] "
                 "(drawn with --seed-rng) or X,Y,...")
    seed_rng_opts = argparse.ArgumentParser(add_help=False)
    seed_rng_opts.add_argument("--seed-rng", type=_bounded(int, 0), default=0,
                               dest="seed_rng", help="seed for random: grids")

    parser = argparse.ArgumentParser(
        prog="quasifix",
        description="asymmetric operator-valued metrics, certificates, and "
                    "fixed-point solving")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", parents=[metric_opts, seed_rng_opts, outputs],
                       help="sweep metric axioms over a sample grid")
    p.add_argument("--grid", type=grid_type, default="41", help=grid_help)
    p.add_argument("--tol", type=_NON_NEGATIVE, default=1e-9)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("classify", parents=[metric_opts, outputs],
                       help="forward/backward convergence verdicts")
    # an @FILE sequence is read by the command, where a bad file exits 1
    p.add_argument("--seq", required=True,
                   type=_checked_by(lambda spec: None if spec.startswith("@")
                                    else _seq_points(spec), "sequence"),
                   help="@FILE (first CSV column), harmonic:X:N, geom:X0:R:N "
                        "or X,Y,...")
    p.add_argument("--candidate", type=float, required=True)
    p.add_argument("--eps", type=_POSITIVE, required=True)
    p.add_argument("--window", type=_bounded(int, 1), required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_classify)

    map_type = _checked_by(_check_map, "map")
    map_help = f"one of {sorted(MAP_CATALOG)} or table:FILE (JSON point -> point)"
    p = sub.add_parser("certify", parents=[metric_opts, seed_rng_opts, outputs],
                       help="verify or search a contraction certificate")
    p.add_argument("--map", type=map_type, required=True, help=map_help)
    p.add_argument("--regime", choices=sorted(_REGIMES), required=True)
    coefficient = p.add_mutually_exclusive_group(required=True)
    coefficient.add_argument("--a", type=_checked_by(_coefficient, "element"),
                             default=None, help="coefficient element as JSON")
    coefficient.add_argument("--search", action="store_true")
    p.add_argument("--grid", type=_checked_by(_nonempty_grid, "grid"), default="21",
                   help=grid_help)
    p.add_argument("--seed", type=float, default=1.0)
    p.add_argument("--orbit-len", type=_bounded(int, 2), default=30,
                   dest="orbit_len")
    p.add_argument("--tol", type=_NON_NEGATIVE, default=1e-9)
    # certify names its report --out; it is args.report, as for the others
    p.add_argument("--out", default=None, dest="report", metavar="OUT")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("solve", parents=[metric_opts, outputs],
                       help="Picard iteration under a certificate")
    p.add_argument("--map", type=map_type, required=True, help=map_help)
    p.add_argument("--seed", type=float, required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--max-iter", type=_bounded(int, 1), default=1000,
                   dest="max_iter")
    p.add_argument("--tol", type=_POSITIVE, default=1e-9)
    p.add_argument("--trace", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("demo-integral", parents=[outputs],
                       help="discretized integral-equation demo")
    p.add_argument("--alpha", type=_POSITIVE, default=0.5)
    p.add_argument("--k", type=_POSITIVE, default=4.0)
    p.add_argument("--grid", type=_bounded(int, 2), default=2048, dest="grid_size")
    p.add_argument("--quadrature",
                   choices=[k.value for k in integral.QuadratureKind],
                   default="trapezoid")
    p.add_argument("--tol", type=_POSITIVE, default=1e-9)
    p.add_argument("--report", default=None)
    p.add_argument("--solution", default=None)
    p.set_defaults(func=_cmd_demo_integral)

    p = sub.add_parser("gallery", help="run the worked-example fixtures")
    p.set_defaults(func=lambda args: (run_gallery(), None))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, and write the report it returns, if any, to
    ``--report`` (``--out`` for certify) when that is given."""
    args = _make_parser().parse_args(argv)
    args.input_hashes = {}  # filled by _read_input
    try:
        status, report = args.func(args)
        if report is not None and args.report is not None:
            _write_output(args.report, _json_text(
                {"manifest": build_manifest(args), "report": report}) + "\n", args.out_dir)
        return status
    except QuasifixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
