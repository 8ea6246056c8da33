"""The three benchmark workloads and their correctness gates.

Each workload is a fixed list of operations built from the benchmark seed
and a variant number: every body parameter, engine seed and stream comes
from ``numpy.random.default_rng([seed, tag, variant])``, through the public
constructors.  The benchmark runs the list as a closed loop with one client,
each operation starting after the previous one returns, and repeats it
("passes") for the requested time, each pass on a new variant of the same
shape (the same operation kinds and sizes in the same order, other
parameters and seeds).  A run thus averages over many inputs, so that the
few whose cost is unusual (a recheck that fires) count at their share
instead of deciding a run's figures.

Sizes.  The Monte Carlo sample counts sit just under a whole number of
``integrate.CHUNK`` rows (``CHUNK`` is 131072): the last chunk's draw is
almost all taken, so drawing only the ``take`` rows cannot move the batch
workloads, and a 30-second run still sees a few hundred distinct inputs.
The counts are not powers of two, so Monte Carlo means are not dyadic
fractions.

Why these workloads (which layer each one stresses, which open item of the
roadmap it can show and which it must not move):

* ``gauss_sweep``: complex-Gaussian ``criteria`` operations at
  ``ONE_CHUNK`` forced Monte Carlo samples on the default 5-point grid: the
  shared estimation pass of ``verify.full_check`` (``body_statistics``)
  and the derivative and moment criteria from it.  Each call is big-chunk
  work: 2n normal draws, ``hypot``, five predicate evaluations per chunk
  and the ``SampleMoments`` reduction.  The bodies are far from the
  equality case, so no recheck fires.  Gauge bodies and radial sampling
  show here; drawing only the ``take`` rows and memoised rechecks must
  not.  n cycles 2..4: at n = 1 both constructors give a disc, the cylinder
  equality case, whose slack is 0 in expectation, so a 3-sigma excursion
  (about 1% of discs) would fire rechecks at random.
* ``unconditional_entropy``: exponential-side ``criteria`` operations on a
  box, an l_p ball and a cross-polytope with a two-sided grid,
  ``moment_ratio`` for the l_inf, coordinate and closed-form gauge norms
  and for a bisection gauge, ``check_subadditivity`` and
  ``check_lemma_multidim`` on Reinhardt l_p-ball complements.  Laplace and
  radial draw kernels, no Gaussian one; time goes to predicate bisection
  (slice entropies, gauge fallback), which gauge bodies remove.
* ``interactive``: in-process ``sineq.cli.main(argv)`` calls with stdout
  captured, so interpreter start-up is paid once, in set-up.  Every call
  draws less than one ``CHUNK``, so per-call latency shows draw waste and
  CLI parsing and emission.  The annulus calls run the recertification
  protocol (18 rechecks each); their 10% share puts p95 inside that mode.

Why no Monte Carlo ``full_check``.  Its dilation curve gives the point
t = 1 a margin of 0 +- 1 ulp with a standard error of exactly 0, so about
2-3% of Monte Carlo calls on in-class bodies start rechecks, and some of
those end ``inconclusive`` or ``violated``: a wrong verdict, on inputs no
seed choice can avoid for long.  The batch workloads therefore run the
same estimation pass and criteria without the curve verdicts, and
``interactive`` runs ``verify`` only on the closed form and on the
annulus (whose expected verdict is ``violated`` either way).  The curve
values themselves are still gated: they must not decrease in t (the
bodies are downward closed) and must agree with the closed form where one
exists.

Gates.  Monte Carlo values are compared with the closed form at
``SIGMA_GATE`` standard errors, two-sided.  The gate is 5 sigma, not 4:
a run makes a few hundred such comparisons and the benchmark is run on a
hundred or more seeds, so at 4 sigma (6.3e-5 per comparison) a correct
program would fail a run every few dozen seeds by chance; at 5 sigma
(5.7e-7) it practically never does, while any real defect of the sampling
or the estimators shows at tens of sigma.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

SIGMA_GATE = 5.0
MIN_SAMPLES = 2000
ONE_CHUNK = 131_000
TWO_CHUNKS = 262_000
EXP_GRID = (0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass
class Op:
    """One benchmark operation.

    ``run(workers)`` performs it and returns its output, ``records`` turns
    that output into JSON-able records (compared bit for bit across passes
    and worker counts), and ``check`` returns the gate failures of an
    output.
    """

    kind: str
    samples: int
    run: Callable[[int], object]
    records: Callable[[object], object]
    check: Callable[[object], list[str]]


def _scaled(samples: int, scale: float) -> int:
    return max(MIN_SAMPLES, int(samples * scale))


def _engine_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _agree(problems: list[str], what: str, value: float, se: float, ref: float) -> None:
    if not abs(value - ref) <= SIGMA_GATE * se:
        problems.append(f"{what} {value!r} vs closed form {ref!r}: more than "
                        f"{SIGMA_GATE} sigma (se {se!r})")


def _holds(problems: list[str], verdict: str, where: str = "") -> None:
    if verdict != "holds":
        problems.append(f"verdict {verdict!r}{where}, expected 'holds'")


def _criteria_op(sq, body, engine, grid, exact) -> Op:
    """The estimation pass of ``verify.full_check`` (measures of tK on
    ``grid`` and the weight moment, forced Monte Carlo) and the derivative
    and moment criteria from it; ``exact`` is the closed-form
    ``BodyStats`` when the body has one."""
    V = sq.verify
    gaussian = isinstance(body, sq.bodies.ReinhardtBody)

    def run(workers: int):
        eng = replace(engine, workers=workers)
        stats = V.body_statistics(body, None, grid, eng)
        deriv = V.check_derivative_criterion(body, eng, stats)
        if gaussian:
            mom = V.check_moment_criterion_gaussian(body, eng, stats)
        else:
            mom = V.check_moment_criterion_exponential(body, eng, stats)
        return stats, deriv, mom

    def records(out) -> list:
        stats, deriv, mom = out
        return [deriv.to_record(), mom.to_record(),
                {"samples": stats.samples, "t_grid": list(stats.t_grid),
                 "means": stats.means.tolist(), "cov": stats.cov.tolist()}]

    def check(out) -> list[str]:
        stats, deriv, mom = out
        problems: list[str] = []
        _holds(problems, deriv.verdict, " (derivative)")
        _holds(problems, mom.verdict, " (moment)")
        curve = stats.means[:-1]
        if not (np.all(np.diff(curve) >= 0) and 0.0 <= curve[0] and curve[-1] <= 1.0):
            problems.append(f"curve {curve.tolist()} not increasing within [0, 1] "
                            f"on the grid {stats.t_grid}")
        if exact is not None:
            for i, t in enumerate(stats.t_grid):
                # an indicator mean near 0 or 1 can have a sample se of 0;
                # the binomial se of the closed form is the floor
                p = exact.means[i]
                se = max(math.sqrt(max(stats.cov[i, i], 0.0)),
                         math.sqrt(p * (1.0 - p) / stats.samples))
                _agree(problems, f"measure at t={t}", stats.means[i], se, p)
            _agree(problems, "moment", stats.moment, math.sqrt(stats.cov[-1, -1]),
                   exact.moment)
        return problems

    return Op("criteria", engine.samples, run, records, check)


def _exact_stats(sq, body, grid):
    if sq.bodies.interval_radii(body) is None:
        return None
    return sq.verify.body_statistics(body, None, grid, sq.integrate.Engine(method="exact"))


def _reinhardt_lp(sq, rng, n: int):
    p = float(rng.uniform(1.0, 4.0))
    w = rng.uniform(0.7, 1.4, size=n)
    return sq.bodies.reinhardt_lp_ball(w, p, float(rng.uniform(0.9, 1.6)) * n ** (1.0 / p))


def _unconditional_lp(sq, rng, n: int):
    p = float(rng.uniform(1.0, 4.0))
    w = rng.uniform(0.7, 1.4, size=n)
    return sq.bodies.unconditional_lp_ball(p, n, float(rng.uniform(1.0, 2.0)) * n ** (1.0 / p), w)


# ---------------------------------------------------------------------------


GAUSS_BODIES = (("lp", 2), ("polydisc", 3), ("lp", 4), ("polydisc", 2), ("lp", 3), ("polydisc", 4))


def gauss_sweep(sq, seed: int, variant: int, scale: float, wrap) -> tuple[list[Op], list[int]]:
    rng = np.random.default_rng([seed, 0x6A55, variant])
    samples = _scaled(ONE_CHUNK, scale)
    grid = sq.verify.DEFAULT_T_GRID
    ops = []
    for stream, (family, n) in enumerate(GAUSS_BODIES):
        if family == "polydisc":
            body = sq.bodies.polydisc(rng.uniform(0.8, 1.6, size=n))
        else:
            body = _reinhardt_lp(sq, rng, n)
        body = sq.bodies.validate_body(body)
        engine = sq.integrate.Engine(method="mc", samples=samples,
                                     seed=_engine_seed(rng), stream=stream)
        ops.append(_criteria_op(sq, wrap(body), engine, grid, _exact_stats(sq, body, grid)))
    return ops, [0, 1]


def unconditional_entropy(sq, seed: int, variant: int, scale: float,
                          wrap) -> tuple[list[Op], list[int]]:
    rng = np.random.default_rng([seed, 0xE27, variant])
    big, small = _scaled(TWO_CHUNKS, scale), _scaled(ONE_CHUNK, scale)
    B, M, E, Eng = sq.bodies, sq.moments, sq.entropy, sq.integrate.Engine

    def engine(samples: int) -> object:
        return Eng(method="mc", samples=samples, seed=_engine_seed(rng))

    ops = []
    for body in (
        B.box_body(rng.uniform(0.5, 1.5, size=2)),
        _unconditional_lp(sq, rng, 3),
        B.cross_polytope(float(rng.uniform(0.7, 1.3)) * 4, 4),
    ):
        body = B.validate_body(body)
        ops.append(_criteria_op(sq, wrap(body), engine(big), EXP_GRID,
                                _exact_stats(sq, body, EXP_GRID)))

    def ratio_op(make_norm, n: int, eng, desc: str, equality: bool) -> Op:
        p, q = float(rng.uniform(1.5, 3.0)), float(rng.uniform(0.5, 1.0))

        # the norm is made at call time so that a traced run sees the
        # factory's callable
        def run(workers: int):
            return M.moment_ratio(make_norm(), p, q, n, replace(eng, workers=workers), desc)

        def check(pair) -> list[str]:
            problems: list[str] = []
            if equality:
                # the coordinate functional attains C(p,q): the ratio must
                # agree with it, and the one-sided 3-sigma verdict may read
                # either way
                _agree(problems, "coordinate ratio", pair.ratio, pair.ratio_se, M.cpq(p, q))
            else:
                _holds(problems, pair.verdict)
            return problems

        return Op("moment_ratio", eng.samples, run, lambda pair: pair.to_record(), check)

    gauge_body = B.validate_body(_unconditional_lp(sq, rng, 4))
    ball = B.validate_body(B.norm_ball(M.lp_norm(3.0), float(rng.uniform(1.5, 2.5)), 3))
    traced_ball = wrap(ball)
    ops += [
        ratio_op(lambda: M.linf_norm(), 3, engine(big), "linf", False),
        ratio_op(lambda: M.coordinate_norm(0), 2, engine(big), "coord", True),
        ratio_op(lambda: M.gauge_norm(gauge_body), 4, engine(big),
                 f"gauge[{gauge_body.descriptor()}]", False),
        ratio_op(lambda: M.gauge_norm(traced_ball), 3, engine(small),
                 f"gauge[{ball.descriptor()}]", False),
    ]

    def entropy_op(check_fn, body, samples: int, *args) -> Op:
        n = body.dim
        g = E.complement_indicator(wrap(B.validate_body(body)))
        eng = engine(samples)

        def run(workers: int):
            return getattr(E, check_fn)(g, n, *args, replace(eng, workers=workers))

        def check(rep) -> list[str]:
            problems: list[str] = []
            if rep.status != "ok" or not rep.holds:
                problems.append(f"{check_fn}: status {rep.status}, slack {rep.slack!r}, "
                                f"se {rep.std_error!r}")
            return problems

        return Op(check_fn, samples, run, lambda rep: rep.to_record(), check)

    # The subadditivity check bisects the slices of every sampled point whose
    # slice meets the body, so its cost follows the body's size (it doubles
    # across the l_p balls drawn for the other operations).  Its body keeps
    # one shape; the seed permutes the weights and picks the engine seed.
    weights = rng.permutation([0.9, 1.0, 1.1])
    ops += [
        entropy_op("check_subadditivity", B.reinhardt_lp_ball(weights, 2.0, 1.1 * 3 ** 0.5),
                   small, "radial-mu"),
        entropy_op("check_lemma_multidim", _reinhardt_lp(sq, rng, 4), big, "complex-gaussian"),
    ]
    return ops, [0, 7]


# ---------------------------------------------------------------------------


def _cli_run(sq, argv: list[str]) -> Callable[[int], tuple[int, str, str]]:
    def run(workers: int):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sq.cli.main(argv + ["--workers", str(workers)])
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_records(output) -> dict:
    code, stdout, _ = output
    return {"code": code, "stdout": stdout}


def _cli_op(sq, kind: str, argv: list[str], samples: int, expect_code: int, gate) -> Op:
    """A CLI call; ``gate(records, problems)`` adds workload-specific checks
    on the parsed JSON records."""

    def check(output) -> list[str]:
        code, stdout, stderr = output
        problems: list[str] = []
        if code != expect_code:
            problems.append(f"exit code {code}, expected {expect_code}: {stderr.strip()[:200]}")
            return problems
        try:
            recs = [json.loads(line) for line in stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return [f"unparseable output: {exc}"]
        if not recs or any("schema_version" not in r for r in recs):
            return ["records missing or without schema_version"]
        gate(recs, problems)
        return problems

    return Op(kind, samples, _cli_run(sq, argv), _cli_records, check)


def _cli_gate_holds(recs: list[dict], problems: list[str]) -> None:
    for r in recs:
        _holds(problems, r["verdict"], f" ({r['kind']} t={r.get('t', '')!r}, "
                                       f"margin {r.get('margin')!r})")


def _descriptor(x: float) -> str:
    return f"{x:.6g}"


def _radii(rng, n: int, lo: float = 0.8, hi: float = 1.6) -> str:
    return ",".join(_descriptor(v) for v in rng.uniform(lo, hi, size=n))


def _measure_bodies(sq, rng) -> list[tuple[str, str]]:
    """(descriptor, measure) pairs cycling over both families."""
    return [
        (f"polydisc:r={_radii(rng, 1)}", "complex-gaussian"),
        (f"polydisc:r={_radii(rng, 2)}", "complex-gaussian"),
        (f"polydisc:r={_radii(rng, 3)}", "complex-gaussian"),
        (_reinhardt_lp(sq, rng, 2).descriptor(), "complex-gaussian"),
        (f"box:a={_radii(rng, 2)}", "exponential"),
        (f"cube:a={_descriptor(rng.uniform(0.8, 1.6))},n=3", "exponential"),
        (_unconditional_lp(sq, rng, 2).descriptor(), "exponential"),
        (f"cross-polytope:scale={_descriptor(rng.uniform(2.0, 4.0))},n=3", "exponential"),
    ]


def _family(measure: str) -> str:
    return "reinhardt" if measure == "complex-gaussian" else "unconditional"


ANNULUS = "annulus:inner=1,outer=2"
INTERACTIVE_PLAN = (
    ["measure"] * 20 + ["moments"] * 8 + ["verify_exact"] * 4
    + ["annulus"] * 4 + ["entropy"] * 4
)


def interactive(sq, seed: int, variant: int, scale: float, wrap) -> tuple[list[Op], list[int]]:
    """``wrap`` is unused: CLI bodies come from ``bodies.parse_descriptor``,
    which the traced run patches.  The call order and the sample counts
    depend on the seed only, so every variant has the same kind and size of
    call in each position."""
    layout = np.random.default_rng([seed, 0x1A7E])
    plan = [INTERACTIVE_PLAN[i] for i in layout.permutation(len(INTERACTIVE_PLAN))]
    measure_samples = [_scaled(s, scale) for s in [1000] * 7 + [5000] * 7 + [20_000] * 6]
    measure_samples = [measure_samples[i] for i in layout.permutation(len(measure_samples))]
    rng = np.random.default_rng([seed, 0x1A7E, variant])
    Eng = sq.integrate.Engine
    exact_engine = Eng(method="exact")
    verify_samples = _scaled(20_000, scale)
    measure_bodies = _measure_bodies(sq, rng) * 3
    exact_bodies = [
        (f"polydisc:r={_radii(rng, 2)}", "complex-gaussian"),
        (f"box:a={_radii(rng, 3, 0.5, 1.5)}", "exponential"),
        (f"cube:a={_radii(rng, 1, 0.5, 1.5)},n=2", "exponential"),
        (f"polydisc:r={_radii(rng, 3)}", "complex-gaussian"),
    ]
    norms = ["linf", "l1", "lp:3", f"body:cube:a={_descriptor(rng.uniform(0.8, 1.6))},n=4"] * 2
    norm_dims = [2, 3, 4, 4, 3, 2, 3, 4]
    entropy_bodies = [_reinhardt_lp(sq, rng, n).descriptor() for n in (2, 3, 2, 3)]

    def parsed(desc: str, measure: str):
        return sq.bodies.parse_descriptor(desc, _family(measure))

    def measure_op(desc: str, measure: str, samples: int) -> Op:
        body = parsed(desc, measure)
        ref = None
        if sq.bodies.interval_radii(body) is not None:
            ref = sq.verify.body_statistics(body, None, (), exact_engine).m

        def gate(recs, problems):
            if ref is not None:
                _agree(problems, "measure", recs[0]["value"], recs[0]["std_error"], ref)
            elif not 0.0 < recs[0]["value"] < 1.0:
                problems.append(f"measure {recs[0]['value']!r} outside (0, 1)")

        argv = ["measure", "--body", desc, "--measure", measure, "--engine", "mc",
                "--samples", str(samples), "--seed", str(_engine_seed(rng))]
        return _cli_op(sq, "cli.measure", argv, samples, 0, gate)

    def verify_exact_op(desc: str, measure: str) -> Op:
        sq.bodies.validate_body(parsed(desc, measure))

        def gate(recs, problems):
            _cli_gate_holds(recs, problems)
            if any(r["method"] != "closed-form" for r in recs):
                problems.append("auto engine did not take the closed form")

        argv = ["verify", "--body", desc, "--measure", measure, "--seed", str(_engine_seed(rng))]
        return _cli_op(sq, "cli.verify_exact", argv, 0, 0, gate)

    def annulus_op() -> Op:
        def gate(recs, problems):
            if not any(r["verdict"] == "violated" for r in recs):
                problems.append("annulus not certified violated")

        argv = ["verify", "--body", ANNULUS, "--experimental", "--engine", "mc",
                "--samples", str(verify_samples), "--seed", str(_engine_seed(rng))]
        return _cli_op(sq, "cli.annulus", argv, verify_samples, 3, gate)

    def moments_op(norm: str, n: int) -> Op:
        argv = ["moments", "--norm", norm, "--n", str(n),
                "--p", _descriptor(rng.uniform(1.5, 3.0)), "--q", _descriptor(rng.uniform(0.5, 1.0)),
                "--samples", str(verify_samples), "--seed", str(_engine_seed(rng))]
        return _cli_op(sq, "cli.moments", argv, verify_samples, 0, _cli_gate_holds)

    def entropy_op(desc: str) -> Op:
        sq.bodies.validate_body(parsed(desc, "complex-gaussian"))
        argv = ["entropy", "--lemma", "multidim", "--body", desc, "--engine", "mc",
                "--samples", str(verify_samples), "--seed", str(_engine_seed(rng))]
        return _cli_op(sq, "cli.entropy", argv, verify_samples, 0, _cli_gate_holds)

    made = {
        "measure": iter(measure_op(d, m, s) for (d, m), s in zip(measure_bodies, measure_samples)),
        "verify_exact": iter(verify_exact_op(d, m) for d, m in exact_bodies),
        "annulus": iter(annulus_op() for _ in range(4)),
        "moments": iter(moments_op(nm, n) for nm, n in zip(norms, norm_dims)),
        "entropy": iter(entropy_op(d) for d in entropy_bodies),
    }
    ops = [next(made[kind]) for kind in plan]
    # the first call of each kind is re-run with two workers
    repro = sorted(plan.index(kind) for kind in made)
    return ops, repro


WORKLOADS = {
    "gauss_sweep": gauss_sweep,
    "unconditional_entropy": unconditional_entropy,
    "interactive": interactive,
}
