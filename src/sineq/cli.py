"""Batch command-line front end: it parses arguments, calls the library
and prints the records the reports return.

Subcommands: ``measure``, ``verify``, ``entropy``, ``moments``, ``fuzz``.
Output is JSON Lines (default) or flat CSV, written to stdout or a file;
identical configuration (including the seed) produces byte-identical
output.  Exit codes: 0 success, 1 numerical abort, 2 invalid input,
3 certified inequality violation (some record's verdict is "violated").

A JSON config file (``--config``, given before the command) may hold any
full long option name of the command.  Its entries become ``--name=value``
flags ahead of the command's own, so argparse types and checks them and the
command line wins.

An argv that starts with a command name is parsed once, by that command's
own parser; any other argv, and one the command parser leaves arguments
of, goes through the top-level parser, which hands the command's arguments
to the same command parser.  Both give the same namespace, messages and
exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

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
from .integrate import Engine, NonFiniteIntegrandError, measure_estimate, record
from .measures import FACTORS, MeasureKind

SCHEMA_VERSION = 2

CSV_COLUMNS = [
    "schema_version", "kind", "body", "norm", "t", "value", "std_error",
    "reference", "margin", "verdict", "seed", "samples", "method", "tolerance",
    "sampling_contract",
]

_EXIT_OK = 0
_EXIT_NUMERICAL = 1
_EXIT_INVALID = 2
_EXIT_VIOLATION = 3

_FAMILY = {"complex-gaussian": "reinhardt", "exponential": "unconditional"}

_JSON = json.JSONEncoder(sort_keys=True)


def _engine(args: argparse.Namespace) -> Engine:
    return Engine(method=args.engine, samples=args.samples, seed=args.seed,
                  workers=args.workers)


def _emit(records: list[dict], args: argparse.Namespace) -> None:
    records = [dict(r, schema_version=SCHEMA_VERSION) for r in records]
    if args.format == "json":
        text = "".join(_JSON.encode(r) + "\n" for r in records)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Fail on an unwritable ``--output`` before any work, leaving an
    existing file as it is until the records are written."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write --output {path!r}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _body(args: argparse.Namespace):
    """The ``--body`` and the :class:`MeasureKind` of ``--measure`` it is
    checked under; the parser refuses a body of the other family."""
    if not args.body:
        raise ValueError("--body is required for this command")
    body = _bodies.parse_descriptor(args.body, _FAMILY[args.measure])
    return body, MeasureKind(args.measure, body.dim)


def cmd_measure(args: argparse.Namespace) -> list[dict]:
    body, kind = _body(args)
    est = measure_estimate(body, kind, _engine(args))
    # a measure is not a check: no reference, margin or verdict
    rec = record(est.value, est.std_error, "", "", est.std_error, "", est.samples, est.method)
    return [dict(rec, kind="measure", body=body.descriptor(), t=1.0, seed=args.seed)]


def cmd_verify(args: argparse.Namespace) -> list[dict]:
    body, _ = _body(args)
    return _verify.full_check(body, _engine(args), args.grid, args.experimental).to_records()


def _parse_step(text: str) -> StepFunction:
    """step:JUMPS:VALUES."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "step":
        raise ValueError(f"step function descriptor must be step:JUMPS:VALUES, got {text!r}")
    jumps = tuple(float(v) for v in parts[1].split(",")) if parts[1] else ()
    return StepFunction(jumps, tuple(float(v) for v in parts[2].split(",")))


def _parse_tail_measure(text: str) -> TailMeasure1D:
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


def cmd_entropy(args: argparse.Namespace) -> list[dict]:
    if args.lemma == "1d":
        if not args.f:
            raise ValueError("--f step:JUMPS:VALUES is required for the 1d lemma")
        rep = check_lemma_1d(_parse_step(args.f), _parse_tail_measure(args.tail_measure),
                             _engine(args))
        desc = args.f
    else:
        body, kind = _body(args)
        g = complement_indicator(body)
        if args.lemma == "multidim":
            rep = check_lemma_multidim(g, body.dim, args.measure, _engine(args))
        else:
            rep = check_subadditivity(g, body.dim, kind.factor.tag, _engine(args))
        desc = body.descriptor()
    return [dict(rep.to_record(), kind=f"entropy-{args.lemma}", body=desc, seed=args.seed)]


def _parse_norm(text: str):
    if text == "linf":
        return _moments.linf_norm()
    if text == "l1":
        return _moments.l1_norm()
    if text.startswith("lp:"):
        return _moments.lp_norm(float(text[3:]))
    if text == "coord" or text.startswith("coord:"):
        return _moments.coordinate_norm(int(text[6:]) if ":" in text else 0)
    if text.startswith("body:"):
        return _bodies.parse_descriptor(text[5:], "unconditional")
    raise ValueError(f"unknown norm {text!r}")


def cmd_moments(args: argparse.Namespace) -> list[dict]:
    norm = _parse_norm(args.norm)
    pair = _moments.moment_ratio(norm, args.p, args.q, args.n, _engine(args))
    return [dict(pair.to_record(), body="")]


def cmd_fuzz(args: argparse.Namespace) -> list[dict]:
    dims = [args.n] if args.n else [1, 2, 3]
    return _verify.sweep(args.family, args.count, dims, _engine(args), args.grid).to_records()


_COMMANDS = {
    "measure": cmd_measure,
    "verify": cmd_verify,
    "entropy": cmd_entropy,
    "moments": cmd_moments,
    "fuzz": cmd_fuzz,
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by name; built once
    per process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="sineq",
        description="Dilation-inequality toolkit: measures, criteria, entropy "
                    "inequalities and moment comparisons for Reinhardt and "
                    "unconditional bodies.",
    )
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def grid(text: str) -> tuple[float, ...]:
        return tuple(float(t) for t in text.split(","))

    def common(p: argparse.ArgumentParser) -> None:
        # no command has a quadrature path for the inputs the CLI parses
        p.add_argument("--engine", default=Engine.method, choices=["auto", "exact", "mc"])
        p.add_argument("--samples", type=int, default=Engine.samples)
        p.add_argument("--seed", type=int, default=Engine.seed)
        p.add_argument("--workers", type=int, default=Engine.workers)
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--output", default=None, help="output file (default stdout)")

    def body_options(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--body", required=required, default=None)
        p.add_argument("--measure", default="complex-gaussian", choices=list(_FAMILY))

    p = sub.add_parser("measure", help="measure of a body")
    body_options(p)
    common(p)

    p = sub.add_parser("verify", help="criteria and dilation curve for a body")
    body_options(p)
    p.add_argument("--grid", type=grid, default=_verify.DEFAULT_T_GRID)
    p.add_argument("--experimental", action="store_true",
                   help="allow bodies outside the supported classes (no correctness promise)")
    common(p)

    p = sub.add_parser("entropy", help="entropy inequality checks")
    p.add_argument("--lemma", default="1d", choices=["1d", "multidim", "subadditivity"])
    p.add_argument("--f", default=None, help="step function: step:JUMPS:VALUES")
    p.add_argument("--tail-measure", dest="tail_measure", default="exponential-1d",
                   help="radial-mu | exponential-1d | atoms:LOC@MASS,...")
    body_options(p, required=False)
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
    p.add_argument("--grid", type=grid, default=_verify.DEFAULT_T_GRID)
    common(p)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the top-level parser gives ``argv``, from one parse by
    the command's own parser when ``argv`` starts with a command name and
    that parser takes all of the rest."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return argparse.Namespace(config=None, command=argv[0], **vars(args))
    return parser.parse_args(argv)


def _command_index(argv: list[str]) -> int:
    """Index of the command token of an ``argv`` the top-level parser took:
    before it stand only ``--config`` options, a token each when their value
    is attached by ``=``, two tokens otherwise."""
    at = 0
    while argv[at].startswith("-"):
        at += 1 if "=" in argv[at] else 2
    return at


def _config_flags(path: str, options: set[str]) -> list[str]:
    """The entries of the JSON config ``path`` as ``--name=value`` flags
    (a bare ``--name`` for true; false and null give none).  Each key must
    be one of ``options``, the full option names of the command."""
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path!r} is not a JSON object")
    flags = []
    for key, value in config.items():
        if key.replace("-", "_") not in options:
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args.config:
            at = _command_index(argv) + 1
            flags = _config_flags(args.config, vars(args).keys() - {"command", "config"})
            args = _parsers()[0].parse_args(argv[:at] + flags + argv[at:])
        _engine(args)  # bad engine options fail on every command, before any work
        if args.output:
            _check_output(args.output)
        records = _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except (NonFiniteIntegrandError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    _emit(records, args)
    return _EXIT_VIOLATION if any(r["verdict"] == "violated" for r in records) else _EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
