"""Every seeded Monte Carlo fixture of the tests, with the producer that
computes it from its seed and the place it is pinned.

A fixture is a value that moves whenever the sampling contract does: a
golden file, a ``cli_workers_seed11`` output of the CI worker-count step, a
digest or a number pinned inside a test file, a raw draw, the pinned
contract number, the seed of the one test keyed to a seed found by search,
or a ``demos/expected`` file.  ``tests/data/repin.py`` checks and
re-pins them; ``tests/test_registry.py`` checks that the worker-count
outputs are those of ``CLI_CASES`` and that no digest or record is pinned
under ``tests/`` without an entry here.

Producers import ``sineq`` only when called, so that at a contract bump
``repin.py`` can run them under the sources of the commit before it.  The
one datum a bump adds is ``DEMO_TEXT_EDITS``, empty but during a bump whose
demos print other words.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[2]

# the CI worker-count step's commands, each run with ``--engine mc --samples
# CLI_SAMPLES --seed CLI_SEED`` at 1, 2 and 3 workers, which must print the
# same bytes as tests/data/cli_workers_seed11/NAME.jsonl, so that a kernel
# change that moves a bit of a multi-block pass fails too.  CLI_SAMPLES makes
# three blocks of 131072 rows, the last one partial, so at three workers
# each block is reduced on its own thread.  Each case takes its own path:
CLI_CASES = {
    # the body_statistics pass under the complex Gaussian measure
    "polydisc": "verify --body polydisc:r=1,1.5",
    # the column path; its certified violation exits 3
    "annulus": "verify --body annulus:inner=1,outer=2 --experimental",
    # every coordinate section
    "subadditivity": "entropy --lemma subadditivity "
                     "--body weighted-lp-ball:p=2,w=0.9,1,1.1,scale=1.9",
    # the row kernels of the max norm
    "moments-linf": "moments --norm linf --n 3 --p 2 --q 1",
    # the gauge path over reused sub-block buffers
    "moments-gauge": "moments --norm body:weighted-lp-ball:p=3,w=0.9,1,1.1,1.2,scale=2 "
                     "--n 4 --p 2 --q 1",
    # a three-column pass through the column check
    "multidim": "entropy --lemma multidim --body weighted-lp-ball:p=2,w=0.9,1,1.1,scale=1.9",
    # the body_statistics pass under the exponential measure
    "exp-box": "verify --body box:a=1,1.5 --measure exponential",
    # a one-column bool pass that is counted
    "measure": "measure --body polydisc:r=1,1.5",
}
CLI_SAMPLES, CLI_SEED = 300_000, 11

# contract-before line -> its line under the new contract, numbers masked
# as "#": the demo text a bump changes on purpose
DEMO_TEXT_EDITS: dict[str, str] = {}


@dataclass(frozen=True)
class Fixture:
    """``produce(seed)``, pinned in ``path`` as the whole file (``pattern``
    None) or as the one group of the one match of ``pattern`` (a regular
    expression, ``.`` matching newlines), encoded by ``how``:

    * "lines": records, one sorted-key JSON line each;
    * "bytes": the sha256 of a pass's means and covariance bytes;
    * "pair": the sha256 of the sorted-key JSON of [means, cov];
    * "json": the sha256 of a record's sorted-key JSON;
    * "repr", "contract": a float, a contract number;
    * "text": a demo's output, whose producer is ``script``;
    * "bits", "seed": text with no earlier value to compare, the raw
      draws' digest or first row, or the first seed from ``seed`` that
      takes a given protocol path.
    """

    path: str
    how: str
    produce: Callable[[int], Any]
    seed: int
    pattern: str | None = None
    script: str | None = None


# ---------------------------------------------------------------------------
# Producers


def _stats(body, samples, seed, stream=0) -> dict:
    from sineq.integrate import Engine
    from sineq.verify import DEFAULT_T_GRID, body_statistics

    stats = body_statistics(body, None, DEFAULT_T_GRID,
                            Engine(method="mc", samples=samples, seed=seed, stream=stream))
    return {"means": stats.means.tolist(), "cov": stats.cov.tolist()}


def _pass_pinned(seed) -> dict:
    from sineq.bodies import polydisc

    return _stats(polydisc([0.9, 1.4]), 150_000, seed, 9)


def _column_pass_pinned(seed) -> dict:
    from sineq.bodies import custom_reinhardt, validate_body

    body = validate_body(custom_reinhardt(
        2, lambda r: (r * r).sum(axis=1) + r[:, 0] * r[:, 1] <= 2.25), rng_seed=3)
    return _stats(body, 150_000, seed, 9)


def _kernel_body(name):
    import numpy as np

    from sineq import bodies as B

    return {
        "lp": (B.reinhardt_lp_ball([0.9, 1.0, 1.1], 2.0, 1.9), "radial-mu", "complex-gaussian"),
        "box-product": (B.product(B.polydisc([0.8]), B.cylinder_body(1.2, 2)).dilate(1.3),
                        "radial-mu", "complex-gaussian"),
        "cross-polytope": (B.cross_polytope(3.2, 4), "exponential-1d", "exponential"),
        "norm-ball": (B.norm_ball(lambda x: (np.abs(x) ** 3).sum(axis=1) ** (1 / 3), 2.0, 3),
                      "exponential-1d", "exponential"),
    }[name]


def _entropy(check, body, seed) -> dict:
    from sineq import entropy
    from sineq.integrate import Engine

    shape, factor, measure = _kernel_body(body)
    tag = factor if check == "check_subadditivity" else measure
    rep = getattr(entropy, check)(entropy.complement_indicator(shape), shape.dim, tag,
                                  Engine(method="mc", samples=70_000, seed=seed))
    return rep.to_record()


def _moments(norm, n, seed, samples=70_000) -> dict:
    from sineq import moments
    from sineq.bodies import unconditional_lp_ball
    from sineq.integrate import Engine

    make = {"linf": moments.linf_norm, "l1": moments.l1_norm,
            "lp:3": lambda: moments.lp_norm(3.0),
            "gauge": lambda: unconditional_lp_ball(2.5, n, 1.3, [0.8, 1.0, 1.2, 1.1][:n])}
    return moments.moment_ratio(make[norm](), 2.5, 0.75, n,
                                Engine(method="mc", samples=samples, seed=seed)).to_record()


def _curve_tolerance(seed) -> float:
    from sineq import verify
    from sineq.bodies import polydisc
    from sineq.integrate import Engine, tolerance

    rep = verify.full_check(polydisc([1.0, 1.0]), Engine(method="mc", samples=20_000, seed=seed),
                            (1.0, 3.0))
    return tolerance(rep.curve.points[1].margin_se)


def _draw(tag, n, seed, block, take):
    from sineq.integrate import SampleStream, draw_points
    from sineq.measures import MeasureKind

    return draw_points(MeasureKind(tag, n), SampleStream(seed, 9), block, take)


def _contract(seed) -> dict:
    from sineq.integrate import SAMPLING_CONTRACT

    return {"sampling_contract": SAMPLING_CONTRACT}


def _moment_excursion(start) -> int:
    """The first seed from ``start`` at which the coordinate moment ratio
    (n = 1, p = 2, q = 1, 2,000 samples) reads 3.1 to 3.3 sigma above
    C(2, 1), the band of the contract-1 fixture, and no recheck repeats it."""
    from sineq.integrate import Engine
    from sineq.moments import coordinate_norm, moment_ratio

    for seed in range(start, start + 100_000):
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                            Engine(method="mc", samples=2000, seed=seed))
        sigmas = (pair.bound - pair.ratio) / pair.ratio_se
        if -3.3 <= sigmas <= -3.1 and pair.verdict_note.startswith("initial 3-sigma"):
            return seed
    raise ValueError(f"no moment excursion in 100,000 seeds from {start}")


def annulus_records(seed) -> list[dict]:
    from sineq import verify
    from sineq.bodies import annulus_body
    from sineq.integrate import Engine

    engine = Engine(method="mc", samples=20_000, seed=seed)
    return verify.full_check(annulus_body(1.0, 2.0), engine, experimental=True).to_records()


def cli_records(args: str, seed) -> list[dict]:
    from sineq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(f"{args} --engine mc --samples {CLI_SAMPLES} --workers 1 "
                        f"--seed {seed}".split())
    if code not in (0, 3):
        raise ValueError(f"sineq {args} exited {code}")
    return [json.loads(line) for line in out.getvalue().splitlines()]


def demo_text(script: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / script), run_name="__main__")
    return out.getvalue()


# ---------------------------------------------------------------------------
# The registry: name -> fixture

HEX = r'"([0-9a-f]{64})"'
INTEGRATE, CLI = "tests/test_integrate.py", "tests/test_cli.py"
DRAWS = [("complex-gaussian", 2), ("exponential", 3), ("radial-mu", 2), ("exponential-1d", 3)]

REGISTRY: dict[str, Fixture] = {
    "tests/data/annulus_full_check_mc20000_seed7.jsonl": Fixture(
        "tests/data/annulus_full_check_mc20000_seed7.jsonl", "lines", annulus_records, 7),
    **{f"tests/data/cli_workers_seed11/{name}.jsonl": Fixture(
        f"tests/data/cli_workers_seed11/{name}.jsonl", "lines",
        lambda seed, a=args: cli_records(a, seed), CLI_SEED)
       for name, args in CLI_CASES.items()},
    **{f"{INTEGRATE}:{test}": Fixture(INTEGRATE, how, produce, seed,
                                      rf"def {test}\(.*?{HEX}")
       for test, how, produce, seed in [
           ("test_pass_pinned", "bytes", _pass_pinned, 2026),
           ("test_column_pass_pinned", "bytes", _column_pass_pinned, 2026),
           ("test_moment_ratio_pass_pinned", "json",
            lambda seed: _moments("linf", 3, seed, samples=150_000), 29)]},
    **{f"{INTEGRATE}:ENTROPY[{check}, {body}]": Fixture(
        INTEGRATE, "json", lambda seed, c=check, b=body: _entropy(c, b, seed), 23,
        rf'\("{check}", "{body}"\):\s*{HEX}')
       for check in ("check_subadditivity", "check_lemma_multidim")
       for body in ("lp", "box-product", "cross-polytope", "norm-ball")},
    **{f"{INTEGRATE}:MOMENTS[{norm}, {n}]": Fixture(
        INTEGRATE, "json", lambda seed, a=norm, b=n: _moments(a, b, seed), 29,
        rf'\("{norm}", {n}\):\s*{HEX}')
       for norm in ("linf", "l1", "lp:3", "gauge") for n in (2, 3, 4)},
    **{f"{INTEGRATE}:STATISTICS[{body}]": Fixture(
        INTEGRATE, "pair", lambda seed, b=body: _stats(_kernel_body(b)[0], 70_000, seed), 31,
        rf'\n\s*"{body}":\s*{HEX}')
       for body in ("lp", "cross-polytope")},
    f"{INTEGRATE}:test_pins_are_those_of_the_current_contract": Fixture(
        INTEGRATE, "contract", _contract, 0, r"assert SAMPLING_CONTRACT == (\d+)"),
    # block 3, rows [0, 1000) of SampleStream(2026, 9): digest and first row
    **{f"{INTEGRATE}:PINNED[{tag}, {n}]": Fixture(
        INTEGRATE, "bits",
        lambda seed, t=tag, k=n: hashlib.sha256(_draw(t, k, seed, 3, 1000).tobytes()).hexdigest(),
        2026, rf'\("{tag}", {n}\): \(\s*{HEX}')
       for tag, n in DRAWS},
    **{f"{INTEGRATE}:PINNED[{tag}, {n}] first row": Fixture(
        INTEGRATE, "bits", lambda seed, t=tag, k=n: repr(_draw(t, k, seed, 3, 1000)[0].tolist()),
        2026, rf'\("{tag}", {n}\): \(\s*"[0-9a-f]{{64}}",\s*(\[.*?\])')
       for tag, n in DRAWS},
    # the first row of block 4
    **{f"{INTEGRATE}:NEXT_BLOCK[{tag}, {n}]": Fixture(
        INTEGRATE, "bits", lambda seed, t=tag, k=n: repr(_draw(t, k, seed, 4, 1)[0].tolist()),
        2026, rf'\("{tag}", {n}\): (\[.*?\])')
       for tag, n in DRAWS[:3]},
    f"{CLI}:T3_TOLERANCE": Fixture(CLI, "repr", _curve_tolerance, 41,
                                   r"T3_TOLERANCE = (\S+)"),
    f"{CLI}:test_moments_excursion_exits_0": Fixture(
        CLI, "seed", _moment_excursion, 0,
        r'def test_moments_excursion_exits_0\(.*?"--seed", "(\d+)"'),
    **{f"demos/expected/{path.stem}.txt": Fixture(
        f"demos/expected/{path.stem}.txt", "text",
        lambda seed, s=f"demos/{path.name}": demo_text(s), 0, script=f"demos/{path.name}")
       for path in sorted((ROOT / "demos").glob("*.py"))},
}


def encode(how: str, value) -> str:
    """The text that pins ``value`` (see :class:`Fixture`)."""
    if how == "lines":
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in value)
    if how == "bytes":
        import numpy as np

        raw = np.array(value["means"]).tobytes() + np.array(value["cov"]).tobytes()
        return hashlib.sha256(raw).hexdigest()
    if how in ("pair", "json"):
        pinned = [value["means"], value["cov"]] if how == "pair" else value
        return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    if how == "contract":
        return str(value["sampling_contract"])
    return repr(value) if how in ("repr", "seed") else value
