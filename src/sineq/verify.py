"""End-to-end dilation-inequality verification.

For a body K and its calibrated comparison set (a cylinder of equal
complex-Gaussian measure, or a strip of equal exponential measure), the
package checks three interchangeable formulations:

* the derivative criterion: the dilation derivative of K's measure at
  scale 1 is at least the comparison set's; both derivatives have simple
  expressions in measure and weight moments, so a single Monte Carlo pass
  over (indicator, weight*indicator) estimates both sides and the slack
  with a shared-sample delta-method standard error;
* the moment criterion: the restricted weight moment of K lies below the
  closed-form value the comparison set would produce at equal measure
  (algebraically the same slack as the derivative criterion, reported in
  its own framing; both read their slack off one ``_slack_pieces``, so
  their agreement checks nothing);
* the dilation curve: measure(tK) against the calibrated closed-form
  reference curve on a grid of scales, with the inequality direction
  flipping at t = 1.

Every comparison-set formula (calibration, moment, dilation rate, curve)
comes from the body measure's :class:`measures.Factor`, and a body's law
gives its closed forms through :func:`bodies.closed_forms`; this
module holds the margins, not the formulas.  :class:`BodyStats` is the
:class:`integrate.Pass` of :func:`body_statistics` plus its body, and every
standard error is the delta method on that pass's covariance.

Verdicts come from :func:`integrate.certify`.  The recheck passes belong
to the :class:`BodyStats` pass, on its full grid, whatever engine a check
is given, and are shared by every check that reads it, so a ``full_check``
runs at most 3 extra passes however many of its checks fail; each report
keeps the protocol's note.  The curve point t = 1
is the calibration itself: its reference is the body's measure and its
margin is 0 exactly.  Every check validates an unvalidated body at the
engine's seed, or at the seed of the ``stats`` it is given, and refuses one
outside its class, unless ``experimental``; it refuses ``stats`` of another
body or measure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import bodies as _b
from . import integrate as _integ
from .bodies import ReinhardtBody, UnconditionalBody, product
from .entropy import EntropyReport
from .integrate import Engine, Estimate, Pass, certify, worst
from .measures import EXP_FACTOR, RADIAL_FACTOR, MeasureKind

__all__ = [
    "DEFAULT_T_GRID",
    "calibrate_cylinder",
    "calibrate_strip",
    "BodyStats",
    "body_statistics",
    "derivative_at_one",
    "CriterionReport",
    "check_derivative_criterion",
    "check_moment_criterion_gaussian",
    "check_moment_criterion_exponential",
    "DilationPoint",
    "DilationReport",
    "dilation_curve",
    "TensorizationReport",
    "check_tensorization",
    "FullCheckReport",
    "full_check",
    "SweepReport",
    "sweep",
]

DEFAULT_T_GRID = (1.0, 1.25, 1.5, 2.0, 3.0)


def _calibrate(factor, m: float) -> float:
    if not 0.0 <= m < 1.0:
        raise ValueError(f"calibration needs a measure in [0, 1), got {m}")
    return factor.quantile(m)


def calibrate_cylinder(m: float) -> float:
    """Radius R with cylinder measure m: R = sqrt(-2 ln(1-m)).

    ``calibrate_cylinder(cylinder_measure(r, 1))`` is r to ~1e-12 up to
    r ~ 4.5: beyond, binary64 loses the tail 1-m < 1e-10 (drift 7.5e-5 at
    r = 8).  The m-side round trip is stable on all of [0, 1)."""
    return _calibrate(RADIAL_FACTOR, m)


def calibrate_strip(m: float) -> float:
    """Half-width p with strip measure m: p = -ln(1-m)."""
    return _calibrate(EXP_FACTOR, m)


def _default_measure(body) -> MeasureKind:
    if not isinstance(body, (ReinhardtBody, UnconditionalBody)):
        raise TypeError(f"not a body: {body!r}")
    return MeasureKind(body.measure_tag, body.dim)


def _in_class(body, seed: int, experimental: bool):
    """``body`` if validated or ``experimental``, else its copy validated at ``seed``."""
    if body.validated or experimental:
        return body
    try:
        return _b.validate_body(body, rng_seed=seed)
    except ValueError as e:
        raise ValueError(f"{e}; pass experimental=True (--experimental) to check it anyway") from e


def _checked_pass(body, stats: BodyStats | None, measure: MeasureKind | None,
                  t_grid: Sequence[float], engine: Engine, experimental: bool) -> BodyStats:
    """``stats``, checked to be a pass over ``body`` under ``measure`` (the
    body's own when None) with ``body`` in class at its seed; else the pass
    of :func:`body_statistics` over ``body``, in class at the engine's seed."""
    if stats is None:
        body = _in_class(body, engine.seed, experimental)
        return body_statistics(body, measure, t_grid, engine)
    measure = measure or _default_measure(body)
    if stats.body_desc != body.descriptor() or stats.measure != measure:
        raise ValueError(f"stats of {stats.body_desc!r} under {stats.measure.tag}"
                         f"({stats.measure.n}) do not belong to {body.descriptor()!r} "
                         f"under {measure.tag}({measure.n})")
    _in_class(body, stats.seed, experimental)
    return stats


@dataclass(frozen=True)
class BodyStats(Pass):
    """Joint measure/moment/dilation statistics from one estimation pass.

    ``means`` holds [measure(tK) for t in t_grid] + [weight moment over K];
    ``cov`` is the covariance matrix of those means (zeros on the
    deterministic path).  The weight is |z|^2 for the complex Gaussian and
    |x|_1 for the exponential measure.
    """

    body_desc: str
    measure: MeasureKind
    t_grid: tuple[float, ...]
    idx1: int

    @property
    def m(self) -> float:
        return float(self.means[self.idx1])

    @property
    def moment(self) -> float:
        return float(self.means[-1])


def body_statistics(
    body,
    measure: MeasureKind | None = None,
    t_grid: Sequence[float] = (),
    engine: Engine = Engine(),
) -> BodyStats:
    """One pass worth of statistics: measures of tK on the grid plus the
    weight moment over K, with full covariance on the Monte Carlo path."""
    measure = measure or _default_measure(body)
    grid = [float(t) for t in t_grid]
    if not all(0.0 < t < math.inf for t in grid):  # NaN fails too
        raise ValueError(f"dilation grid must be positive and finite, got {grid}")
    if 1.0 not in grid:
        grid.append(1.0)
    grid = tuple(sorted(set(grid)))
    idx1 = grid.index(1.0)

    _integ.check_pairing(body, measure)
    gauge = body.gauge

    def closed():
        forms = _b.closed_forms(body, measure.factor, grid)
        return None if forms is None else [*forms.curve, forms.moment]

    def columns(r: np.ndarray) -> _integ.Sublevels | _integ.Indicators:
        if gauge is not None:
            # a gauge body answers every t from one evaluation: r lies in tK
            # exactly when rho_K(r) <= t, the rule of body.dilate(t)
            return _integ.Sublevels(gauge(r), grid, measure.weight(r), idx1)
        return _integ.Indicators([body.base(r / t) for t in grid], measure.weight(r), idx1)

    est = _integ.estimate(engine, measure, columns, len(grid) + 1, closed,
                          subject=lambda: f"body {body.descriptor()!r}")
    return BodyStats(est.method, est.seed, est.stream, est.samples, est.means, est.cov,
                     redraw=est.redraw, body_desc=body.descriptor(), measure=measure,
                     t_grid=grid, idx1=idx1)


# ---------------------------------------------------------------------------
# Criteria


def _slack_pieces(stats: BodyStats) -> tuple[float, float]:
    """Criterion slack and its standard error, shared by the derivative
    and moment framings (they coincide algebraically): the comparison
    set's weight moment at measure m minus the body's."""
    ref, slope = stats.measure.factor.comparison_moment(stats.m, stats.measure.n)
    return ref - stats.moment, stats.se({stats.idx1: slope, -1: -1.0})


def derivative_at_one(
    body,
    measure: MeasureKind | None = None,
    engine: Engine = Engine(),
    stats: BodyStats | None = None,
) -> Estimate:
    """d/dt measure(tK) at t = 1: 2n*measure - second moment for the
    complex Gaussian, n*measure - first absolute moment for the
    exponential measure; standard error propagated from the shared pass."""
    stats = stats or body_statistics(body, measure, (), engine)
    c = stats.measure.factor.d * stats.measure.n
    return Estimate(c * stats.m - stats.moment, stats.se({stats.idx1: c, -1: -1.0}),
                    stats.method, stats.samples)


@dataclass(frozen=True)
class CriterionReport:
    criterion: str  # derivative | gaussian-moment | exponential-moment
    body: str
    lhs: Estimate
    rhs: Estimate
    slack: float
    std_error: float
    verdict: str
    seed: int
    samples: int
    entropy_form: EntropyReport | None = None
    note: str = ""

    def to_record(self) -> dict:
        return {"kind": self.criterion, "body": self.body, "t": "", "seed": self.seed,
                **_integ.record(self.lhs.value, self.std_error, self.rhs.value, self.slack,
                                self.std_error, self.verdict, self.samples, self.lhs.method)}


def _degenerate(stats: BodyStats) -> str | None:
    if stats.m <= 0.0:
        return "degenerate: measure 0"
    if stats.m >= 1.0 - 1e-12:
        return "degenerate: measure 1 (dilation invariant)"
    return None


_MOMENT_CRITERION = {"complex-gaussian": "gaussian-moment", "exponential": "exponential-moment"}


def _criterion_report(stats: BodyStats, criterion: str) -> CriterionReport:
    note = _degenerate(stats)
    if note is not None:
        zero = Estimate(0.0, 0.0, stats.method, stats.samples)
        return CriterionReport(criterion, stats.body_desc, zero, zero, 0.0, 0.0,
                               "holds", stats.seed, stats.samples, note=note)
    slack, se = _slack_pieces(stats)
    verdict, vnote = certify(stats, _slack_pieces)

    factor, n, m = stats.measure.factor, stats.measure.n, stats.m
    if criterion == "derivative":
        lhs = derivative_at_one(None, stats=stats)
        ref, slope = factor.dilation_rate(m)
    else:
        lhs = Estimate(stats.moment, stats.se({-1: 1.0}), stats.method, stats.samples)
        ref, slope = factor.comparison_moment(m, n)
    rhs = Estimate(ref, stats.se({stats.idx1: slope}), stats.method, stats.samples)

    entropy_form = None
    if criterion == "exponential-moment":
        lhs_e, rhs_e = factor.entropy_sides(m, stats.moment, n)
        entropy_form = EntropyReport(
            lhs=lhs_e, rhs=rhs_e, slack=slack / factor.d, std_error=se / factor.d,
            method=stats.method,
            note="complement-indicator entropy form of the moment criterion",
            verdict=verdict, verdict_note=vnote, samples=stats.samples,
        )
    return CriterionReport(criterion, stats.body_desc, lhs, rhs, slack, se,
                           verdict, stats.seed, stats.samples,
                           entropy_form=entropy_form, note=vnote)


def _check_criterion(body, engine, stats, experimental, criterion, family=object):
    if not isinstance(body, family):
        raise TypeError(f"the {criterion} criterion applies to {family.__name__} bodies")
    return _criterion_report(_checked_pass(body, stats, None, (), engine, experimental), criterion)


def check_derivative_criterion(
    body,
    engine: Engine = Engine(),
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """Dilation-derivative comparison against the calibrated comparison set."""
    return _check_criterion(body, engine, stats, experimental, "derivative")


def check_moment_criterion_gaussian(
    body: ReinhardtBody,
    engine: Engine = Engine(),
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """Second-moment form: the |z|^2 mass of K must not exceed
    2n*m + 2(1-m)ln(1-m) at m = measure(K); ``experimental`` as in :func:`full_check`."""
    return _check_criterion(body, engine, stats, experimental, "gaussian-moment", ReinhardtBody)


def check_moment_criterion_exponential(
    body: UnconditionalBody,
    engine: Engine = Engine(),
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """First-moment form under the exponential measure, with the
    complement-indicator entropy form attached; ``experimental`` as in :func:`full_check`."""
    return _check_criterion(body, engine, stats, experimental, "exponential-moment",
                            UnconditionalBody)


# ---------------------------------------------------------------------------
# Dilation curves


@dataclass(frozen=True)
class DilationPoint:
    t: float
    value: float
    std_error: float
    reference: float
    margin: float
    margin_se: float
    direction: str  # ">=" for t >= 1, "<=" for t < 1
    verdict: str
    note: str = ""  # how the verdict was certified; not part of the records


@dataclass(frozen=True)
class DilationReport:
    body: str
    method: str
    seed: int
    samples: int
    points: tuple[DilationPoint, ...]
    note: str = ""

    @property
    def verdict(self) -> str:
        return worst(p.verdict for p in self.points)

    def to_records(self) -> list[dict]:
        return [{"kind": "dilation", "body": self.body, "t": p.t, "seed": self.seed,
                 **_integ.record(p.value, p.std_error, p.reference, p.margin, p.margin_se,
                                 p.verdict, self.samples, self.method)} for p in self.points]


def _curve_margin(stats: BodyStats, i: int) -> tuple[float, float, float, str]:
    """(margin, std error, reference, direction) of curve point i against
    the calibrated comparison set at scale t."""
    t = stats.t_grid[i]
    m1 = stats.m
    if i == stats.idx1:
        # the calibration makes t = 1 an identity; computing the reference
        # through the comparison-set formula would leave a +-1 ulp margin
        # with a 0 std error
        return 0.0, 0.0, m1, ">="
    ref, slope = stats.measure.factor.comparison_measure(m1, t)
    raw = float(stats.means[i]) - ref
    margin = raw if t >= 1.0 else -raw
    return margin, stats.se({i: 1.0, stats.idx1: -slope}), ref, ">=" if t >= 1.0 else "<="


def dilation_curve(
    body,
    measure: MeasureKind | None = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    engine: Engine = Engine(),
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> DilationReport:
    """measure(tK) on a grid versus the calibrated comparison curve.

    For t >= 1 the body curve must dominate the reference; for t < 1 the
    reversed inequality is required (derived behavior for the complex
    case, flagged in the report note).  ``experimental`` skips the class check.
    """
    return _curve_report(_checked_pass(body, stats, measure, t_grid, engine, experimental))


def _curve_report(stats: BodyStats) -> DilationReport:
    note = _degenerate(stats)
    reversed_note = (
        "t<1 direction is derived from the t>=1 inequality by rescaling"
        if any(t < 1.0 for t in stats.t_grid) and stats.measure.tag == "complex-gaussian"
        else ""
    )
    points = []
    for i, t in enumerate(stats.t_grid):
        if note is not None:
            val = float(stats.means[i])
            points.append(DilationPoint(t, val, 0.0, val, 0.0, 0.0,
                                        ">=" if t >= 1 else "<=", "holds"))
            continue
        margin, mse, ref, direction = _curve_margin(stats, i)
        verdict, vnote = certify(stats, lambda s, _i=i: _curve_margin(s, _i)[:2])
        points.append(DilationPoint(t, float(stats.means[i]), stats.se({i: 1.0}),
                                    ref, margin, mse, direction, verdict, vnote))
    return DilationReport(
        body=stats.body_desc,
        method=stats.method,
        seed=stats.seed,
        samples=stats.samples,
        points=tuple(points),
        note="; ".join(filter(None, [note or "", reversed_note])),
    )


# ---------------------------------------------------------------------------
# Tensorization, combined checks, sweeps


@dataclass(frozen=True)
class TensorizationReport:
    parts: tuple[CriterionReport, ...]
    combined: CriterionReport

    @property
    def verdict(self) -> str:
        return worst([p.verdict for p in self.parts] + [self.combined.verdict])


def check_tensorization(
    parts: Sequence[ReinhardtBody],
    engine: Engine = Engine(),
    experimental: bool = False,
) -> TensorizationReport:
    """Each factor's criterion plus the criterion of the Cartesian product
    (stability of the dilation inequality under products)."""
    reports = [
        check_moment_criterion_gaussian(
            b, replace(engine, stream=engine.stream + i), experimental=experimental
        )
        for i, b in enumerate([*parts, product(*parts)])
    ]
    return TensorizationReport(parts=tuple(reports[:-1]), combined=reports[-1])


@dataclass(frozen=True)
class FullCheckReport:
    body: str
    derivative: CriterionReport
    moment: CriterionReport
    curve: DilationReport

    @property
    def verdict(self) -> str:
        return worst([self.derivative.verdict, self.moment.verdict, self.curve.verdict])

    @property
    def min_margin(self) -> float:
        margins = [self.derivative.slack, self.moment.slack]
        margins.extend(p.margin for p in self.curve.points)
        return min(margins)

    def to_records(self) -> list[dict]:
        return [self.derivative.to_record(), self.moment.to_record()] + self.curve.to_records()


def full_check(
    body,
    engine: Engine = Engine(),
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    experimental: bool = False,
) -> FullCheckReport:
    """Derivative criterion, moment criterion and dilation curve from one
    shared estimation pass; a Monte Carlo violation costs at most 3 shared
    recheck passes.  ``experimental`` skips the class check of the body."""
    stats = _checked_pass(body, None, None, t_grid, engine, experimental)
    deriv = _criterion_report(stats, "derivative")
    mom = _criterion_report(stats, _MOMENT_CRITERION[stats.measure.tag])
    curve = _curve_report(stats)
    return FullCheckReport(body=stats.body_desc, derivative=deriv, moment=mom, curve=curve)


@dataclass(frozen=True)
class SweepReport:
    family: str
    count: int
    holds: int
    violated: int
    inconclusive: int
    min_margin: float
    rows: tuple[dict, ...]  # a fuzz-body record per body
    engine: Engine

    @property
    def certified_violations(self) -> int:
        return self.violated

    def to_records(self) -> list[dict]:
        """The fuzz-body records and a fuzz-summary record."""
        return [*self.rows, {
            "kind": "fuzz-summary",
            "body": self.family,
            "value": self.min_margin,
            "margin": self.min_margin,
            "verdict": f"{self.holds} holds / {self.violated} violated / "
                       f"{self.inconclusive} inconclusive",
            "seed": self.engine.seed,
            "samples": self.engine.samples,
            "method": self.engine.method,
            "tolerance": "",
            "sampling_contract": _integ.SAMPLING_CONTRACT,
        }]


def _random_body(family: str, n: int, rng: np.random.Generator):
    if family == "polydisc":
        return _b.polydisc(rng.uniform(0.3, 2.5, size=n))
    if family in ("weighted-lp-ball", "lp-ball"):
        reinhardt = family == "weighted-lp-ball"  # p < 1 only there: no convexity needed
        p = float(rng.uniform(0.7, 4.0) if reinhardt else rng.uniform(1.0, 5.0))
        w = rng.uniform(0.5, 2.0, size=n)
        scale = float(rng.uniform(0.8, 2.5)) * n ** (1.0 / p)
        if reinhardt:
            return _b.reinhardt_lp_ball(w, p, scale)
        return _b.unconditional_lp_ball(p, n, scale, w)
    if family == "cube":
        return _b.cube_body(float(rng.uniform(0.3, 2.0)), n)
    if family == "box":
        return _b.box_body(rng.uniform(0.3, 2.5, size=n))
    raise ValueError(f"unknown sweep family {family!r}")


def sweep(
    family: str,
    count: int,
    dims: Sequence[int],
    engine: Engine = Engine(),
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> SweepReport:
    """Randomized constructor sweep: ``count`` bodies of the family with
    dimensions cycling through ``dims``, each checked on its own sample
    stream of the same seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(dims) == 0:
        raise ValueError("dims must name at least one dimension")
    rng = np.random.default_rng([engine.seed, 0x5EED])
    rows = []
    for i in range(count):
        n = int(dims[i % len(dims)])
        body = _random_body(family, n, rng)
        rep = full_check(body, replace(engine, stream=engine.stream + i), t_grid)
        # value and margin: the body's smallest margin, with no single error or tolerance
        rows.append({"kind": "fuzz-body", "body": rep.body, "t": "", "value": rep.min_margin,
                     "std_error": "", "reference": "", "margin": rep.min_margin,
                     "tolerance": "", "verdict": rep.verdict, "seed": engine.seed,
                     "samples": rep.curve.samples, "method": rep.curve.method,
                     "sampling_contract": _integ.SAMPLING_CONTRACT})
    tally = Counter(row["verdict"] for row in rows)
    return SweepReport(family, count, tally["holds"], tally["violated"], tally["inconclusive"],
                       min([math.inf] + [row["margin"] for row in rows]), tuple(rows), engine)
