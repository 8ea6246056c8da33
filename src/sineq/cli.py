"""Batch command-line front end.

Subcommands: ``measure``, ``verify``, ``entropy``, ``moments``, ``fuzz``.
Output is JSON Lines (default) or flat CSV, written to stdout or a file;
identical configuration (including the seed) produces byte-identical
output.  Exit codes: 0 success, 1 numerical abort, 2 invalid input,
3 certified inequality violation.

A JSON config file (``--config``) may hold any long option name of the
command; flags on the command line, in any form argparse accepts, override
it.  Verdicts and the ``tolerance`` column come from :mod:`integrate`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import bodies as _bodies
from . import moments as _moments
from . import verify as _verify
from .entropy import (
    StepFunction,
    TailMeasure1D,
    check_lemma_1d,
    check_lemma_multidim,
    check_subadditivity,
    complement_indicator,
)
from .integrate import Engine, NonFiniteIntegrandError, measure_estimate, tolerance
from .measures import FACTORS, MeasureKind

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "schema_version", "kind", "body", "norm", "t", "value", "std_error",
    "reference", "margin", "verdict", "seed", "samples", "method", "tolerance",
]

_EXIT_OK = 0
_EXIT_NUMERICAL = 1
_EXIT_INVALID = 2
_EXIT_VIOLATION = 3


@dataclass
class RunConfig:
    command: str
    body: str | None = None
    measure: str = "complex-gaussian"
    engine: str = "auto"
    samples: int = 1_000_000
    seed: int = 42
    order: int = 64
    workers: int = 1
    grid: str = "1,1.25,1.5,2,3"
    format: str = "json"
    output: str | None = None
    experimental: bool = False
    # entropy
    lemma: str = "1d"
    f: str | None = None
    tail_measure: str = "exponential-1d"
    # moments
    norm: str = "linf"
    n: int = 1
    p: float = 2.0
    q: float = 1.0
    # fuzz
    family: str = "polydisc"
    count: int = 100

    def parsed_grid(self) -> tuple[float, ...]:
        try:
            return tuple(float(t) for t in self.grid.split(","))
        except ValueError as exc:
            raise ValueError(f"bad grid {self.grid!r}: {exc}") from exc

    def make_engine(self) -> Engine:
        return Engine(method=self.engine, samples=self.samples, seed=self.seed,
                      order=self.order, workers=self.workers)


def _measure_kind(name: str, n: int) -> MeasureKind:
    if name not in ("complex-gaussian", "exponential"):
        raise ValueError(f"unknown measure {name!r} (use complex-gaussian or exponential)")
    return MeasureKind(name, n)


def _family_for_measure(name: str) -> str:
    return "reinhardt" if name == "complex-gaussian" else "unconditional"


def _finish_record(rec: dict) -> dict:
    rec.setdefault("schema_version", SCHEMA_VERSION)
    if "tolerance" not in rec:
        rec["tolerance"] = tolerance(float(rec.get("std_error", 0.0) or 0.0))
    return rec


def _emit(records: list[dict], cfg: RunConfig) -> None:
    records = [_finish_record(dict(r)) for r in records]
    if cfg.format == "json":
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    elif cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown output format {cfg.format!r}")
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_body(cfg: RunConfig):
    if not cfg.body:
        raise ValueError("--body is required for this command")
    return _bodies.parse_descriptor(cfg.body, _family_for_measure(cfg.measure))


def _check_family(body, measure: str) -> MeasureKind:
    kind = _measure_kind(measure, body.dim)
    if body.measure_tag != kind.tag:
        need = "a Reinhardt" if kind.factor.d == 2 else "an unconditional"
        raise ValueError(f"--measure {measure} needs {need} body, got {body.descriptor()!r}")
    return kind


def cmd_measure(cfg: RunConfig) -> int:
    body = _parse_body(cfg)
    est = measure_estimate(body, _check_family(body, cfg.measure), cfg.make_engine())
    _emit([
        {
            "kind": "measure",
            "body": body.descriptor(),
            "t": 1.0,
            "value": est.value,
            "std_error": est.std_error,
            "verdict": "",
            "seed": cfg.seed,
            "samples": est.samples,
            "method": est.method,
        }
    ], cfg)
    return _EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    body = _parse_body(cfg)
    _check_family(body, cfg.measure)
    if not body.validated and not cfg.experimental:
        try:
            body = _bodies.validate_body(body, rng_seed=cfg.seed)
        except ValueError as exc:
            raise ValueError(f"{exc}; pass --experimental to check it anyway") from exc
    engine = cfg.make_engine()
    report = _verify.full_check(body, engine, cfg.parsed_grid(), experimental=True)
    records = [dict(r, method=report.curve.method) for r in report.to_records()]
    _emit(records, cfg)
    return _EXIT_VIOLATION if report.verdict == "violated" else _EXIT_OK


def _parse_step(text: str) -> tuple[StepFunction, str | None]:
    """step:JUMPS:VALUES with an optional trailing :MEASURE segment."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[0] != "step":
        raise ValueError(
            f"step function descriptor must be step:JUMPS:VALUES[:MEASURE], got {text!r}"
        )
    jumps = tuple(float(v) for v in parts[1].split(",")) if parts[1] else ()
    values = tuple(float(v) for v in parts[2].split(","))
    measure = parts[3] if len(parts) == 4 else None
    return StepFunction(jumps, values), measure


def _parse_tail_measure(text: str) -> TailMeasure1D:
    text = {"mu": "radial-mu", "exp": "exponential-1d"}.get(text, text)
    if text in FACTORS:
        return TailMeasure1D(text)
    if text.startswith("atoms:"):
        locs, masses = [], []
        for tok in text[len("atoms:"):].split(","):
            loc, _, mass = tok.partition("@")
            locs.append(float(loc))
            masses.append(float(mass))
        return TailMeasure1D.discrete(locs, masses)
    raise ValueError(f"unknown tail measure {text!r}")


def cmd_entropy(cfg: RunConfig) -> int:
    if cfg.lemma == "1d":
        if not cfg.f:
            raise ValueError("--f step:JUMPS:VALUES is required for the 1d lemma")
        f, inline_measure = _parse_step(cfg.f)
        rep = check_lemma_1d(f, _parse_tail_measure(inline_measure or cfg.tail_measure))
        desc, samples = cfg.f, 0
    else:
        body = _parse_body(cfg)
        g = complement_indicator(body)
        engine = cfg.make_engine()
        if cfg.lemma == "multidim":
            rep = check_lemma_multidim(g, body.dim, cfg.measure, engine)
        elif cfg.lemma == "subadditivity":
            factor = _measure_kind(cfg.measure, 1).factor.tag
            rep = check_subadditivity(g, body.dim, factor, engine)
        else:
            raise ValueError(f"unknown lemma {cfg.lemma!r}")
        if rep.status != "ok":
            raise ValueError(f"invalid input for entropy check: {rep.note}")
        desc, samples = body.descriptor(), cfg.samples
    rec = rep.to_record()
    rec.update({"kind": f"entropy-{cfg.lemma}", "body": desc,
                "value": rep.lhs, "reference": rep.rhs, "margin": rep.slack,
                "verdict": rep.verdict,
                "seed": cfg.seed, "samples": samples, "method": rep.lhs_method})
    _emit([rec], cfg)
    return _EXIT_VIOLATION if rep.verdict == "violated" else _EXIT_OK


def _parse_norm(cfg: RunConfig):
    text = cfg.norm
    if text == "linf":
        return _moments.linf_norm(), "linf"
    if text == "l1":
        return _moments.l1_norm(), "l1"
    if text.startswith("lp:"):
        return _moments.lp_norm(float(text[3:])), text
    if text == "coord" or text.startswith("coord:"):
        idx = int(text[6:]) if ":" in text else 0
        return _moments.coordinate_norm(idx), text
    if text.startswith("body:"):
        body = _bodies.parse_descriptor(text[5:], "unconditional")
        return _moments.gauge_norm(body), f"gauge[{body.descriptor()}]"
    raise ValueError(f"unknown norm {text!r}")


def cmd_moments(cfg: RunConfig) -> int:
    norm, desc = _parse_norm(cfg)
    pair = _moments.moment_ratio(norm, cfg.p, cfg.q, cfg.n, cfg.make_engine(), norm_desc=desc)
    rec = pair.to_record()
    rec.update({"body": "", "value": pair.ratio, "std_error": pair.ratio_se,
                "reference": pair.bound, "margin": pair.bound - pair.ratio,
                "method": pair.moment_p.method})
    _emit([rec], cfg)
    return _EXIT_VIOLATION if pair.verdict == "violated" else _EXIT_OK


def cmd_fuzz(cfg: RunConfig) -> int:
    dims = [cfg.n] if cfg.n else [1, 2, 3]
    report = _verify.sweep(cfg.family, cfg.count, dims, cfg.make_engine(), cfg.parsed_grid())
    records = [
        {
            "kind": "fuzz-body",
            "body": row["body"],
            "t": "",
            "value": row["min_margin"],
            "std_error": "",
            "reference": "",
            "margin": row["min_margin"],
            "verdict": row["verdict"],
            "seed": row["seed"],
            "samples": row["samples"],
            "method": row["method"],
            "tolerance": "",
        }
        for row in report.rows
    ]
    records.append(
        {
            "kind": "fuzz-summary",
            "body": cfg.family,
            "value": report.min_margin,
            "margin": report.min_margin,
            "verdict": f"{report.holds} holds / {report.violated} violated / "
                       f"{report.inconclusive} inconclusive",
            "seed": cfg.seed,
            "samples": cfg.samples,
            "method": cfg.engine,
            "tolerance": "",
        }
    )
    _emit(records, cfg)
    return _EXIT_VIOLATION if report.violated else _EXIT_OK


_COMMANDS = {
    "measure": cmd_measure,
    "verify": cmd_verify,
    "entropy": cmd_entropy,
    "moments": cmd_moments,
    "fuzz": cmd_fuzz,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="sineq",
        description="Dilation-inequality toolkit: measures, criteria, entropy "
                    "inequalities and moment comparisons for Reinhardt and "
                    "unconditional bodies.",
    )
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--engine", default="auto", choices=["auto", "exact", "mc", "quadrature"])
        p.add_argument("--samples", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--order", type=int, default=64)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("measure", help="measure of a body")
    p.add_argument("--body", required=True)
    p.add_argument("--measure", default="complex-gaussian")
    common(p)

    p = sub.add_parser("verify", help="criteria and dilation curve for a body")
    p.add_argument("--body", required=True)
    p.add_argument("--measure", default="complex-gaussian")
    p.add_argument("--grid", default="1,1.25,1.5,2,3")
    p.add_argument("--experimental", action="store_true",
                   help="allow bodies outside the supported classes (no correctness promise)")
    common(p)

    p = sub.add_parser("entropy", help="entropy inequality checks")
    p.add_argument("--lemma", default="1d", choices=["1d", "multidim", "subadditivity"])
    p.add_argument("--f", default=None, help="step function: step:JUMPS:VALUES")
    p.add_argument("--tail-measure", dest="tail_measure", default="exponential-1d",
                   help="radial-mu | exponential-1d | atoms:LOC@MASS,...")
    p.add_argument("--body", default=None)
    p.add_argument("--measure", default="complex-gaussian")
    common(p)

    p = sub.add_parser("moments", help="norm moment comparison")
    p.add_argument("--norm", default="linf", help="linf | l1 | lp:P | coord[:K] | body:DESC")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=1.0)
    common(p)

    p = sub.add_parser("fuzz", help="randomized constructor sweep")
    p.add_argument("--family", default="polydisc",
                   choices=["polydisc", "weighted-lp-ball", "cube", "lp-ball", "box"])
    p.add_argument("--n", type=int, default=0, help="dimension (0 cycles 1..3)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--grid", default="1,1.25,1.5,2,3")
    common(p)

    return parser


def _given_options(tokens: list[str], options) -> set[str]:
    """The ``options`` that parsed ``tokens`` set, in every form argparse
    accepts: ``--name value``, ``--name=value``, a unique prefix of the name."""
    keys = [t[2:].split("=", 1)[0].replace("-", "_") for t in tokens if t.startswith("--")]
    return {k if k in options else next(o for o in options if o.startswith(k))
            for k in keys if k}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                defaults = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
            return _EXIT_INVALID
        # config fills in anything not given explicitly on the command line
        explicit = _given_options(argv[argv.index(args.command) + 1:],
                                  vars(args).keys() - {"command", "config"})
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return _EXIT_INVALID
            if attr not in explicit:
                setattr(args, attr, value)
    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in names})
    try:
        return _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except NonFiniteIntegrandError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
