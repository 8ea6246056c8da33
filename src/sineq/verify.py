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
  its own framing; the agreement is a useful internal consistency check);
* the dilation curve: measure(tK) against the calibrated closed-form
  reference curve on a grid of scales, with the inequality direction
  flipping at t = 1.

Verdict semantics under Monte Carlo noise: "holds" needs margin
>= -3 * std_error; a negative margin beyond that triggers recertification
under three fresh seeds with doubled samples and becomes "violated" only
when every recheck stays below -3 * std_error (and "inconclusive" when the
rechecks disagree).  The recheck passes are estimated once on the full
grid and shared by the criteria and every curve point, so a ``full_check``
runs at most 3 extra passes however many of its checks fail.
Deterministic (closed-form) paths use a fixed 1e-10 tolerance instead.
The curve point t = 1 is the calibration itself: its reference is the
body's measure and its margin is 0 exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import integrate as _integ
from .bodies import (
    ReinhardtBody,
    UnconditionalBody,
    interval_radii,
    moduli,
    product,
)
from .entropy import EntropyReport
from .integrate import Engine, Estimate
from .measures import MeasureKind, complex_gaussian, exponential, xlnx

__all__ = [
    "DET_TOL",
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

DET_TOL = 1e-10
DEFAULT_T_GRID = (1.0, 1.25, 1.5, 2.0, 3.0)
_RECHECK_SEEDS = 3


def calibrate_cylinder(m: float) -> float:
    """Radius R with cylinder measure m: R = sqrt(-2 ln(1-m))."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"calibration needs a measure in [0, 1), got {m}")
    return math.sqrt(-2.0 * math.log1p(-m))


def calibrate_strip(m: float) -> float:
    """Half-width p with strip measure m: p = -ln(1-m)."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"calibration needs a measure in [0, 1), got {m}")
    return -math.log1p(-m)


def _default_measure(body) -> MeasureKind:
    if isinstance(body, ReinhardtBody):
        return complex_gaussian(body.dim)
    if isinstance(body, UnconditionalBody):
        return exponential(body.dim)
    raise TypeError(f"not a body: {body!r}")


def _require_validated(body, experimental: bool) -> None:
    if body.validated or experimental:
        return
    raise ValueError(
        f"body {body.descriptor()!r} is not validated for its class; "
        "run the closure/convexity checks or pass experimental=True "
        "(no correctness promise outside the supported classes)"
    )


@dataclass(frozen=True)
class BodyStats:
    """Joint measure/moment/dilation statistics from one estimation pass.

    ``means`` holds [measure(tK) for t in t_grid] + [weight moment over K];
    ``cov`` is the covariance matrix of those means (zeros on the
    deterministic path).  The weight is |z|^2 for the complex Gaussian and
    |x|_1 for the exponential measure.
    """

    body_desc: str
    measure: MeasureKind
    method: str
    seed: int
    stream: int
    samples: int
    t_grid: tuple[float, ...]
    idx1: int
    means: np.ndarray
    cov: np.ndarray

    @property
    def m(self) -> float:
        return float(self.means[self.idx1])

    @property
    def moment(self) -> float:
        return float(self.means[-1])

    def curve_value(self, i: int) -> float:
        return float(self.means[i])

    @property
    def deterministic(self) -> bool:
        return self.method == "closed-form"

    def measure_estimate(self) -> Estimate:
        se = math.sqrt(max(float(self.cov[self.idx1, self.idx1]), 0.0))
        return Estimate(self.m, se, self.method, self.samples)


def _closed_curve_stats(body, measure: MeasureKind, t_grid: tuple[float, ...]):
    radii = interval_radii(body)
    if radii is None:
        return None
    from .entropy import _factor_cdf, _factor_restricted_weight  # shared closed forms

    factor = "radial-mu" if measure.tag == "complex-gaussian" else "exponential-1d"
    n = body.dim
    means = []
    for t in t_grid:
        means.append(math.prod(_factor_cdf(factor, t * a) for a in radii))
    F = [_factor_cdf(factor, a) for a in radii]
    S = math.fsum(
        _factor_restricted_weight(factor, a)
        * math.prod(F[j] for j in range(n) if j != k)
        for k, a in enumerate(radii)
    )
    means.append(S)
    return np.array(means)


def body_statistics(
    body,
    measure: MeasureKind | None = None,
    t_grid: Sequence[float] = (),
    engine: Engine | None = None,
) -> BodyStats:
    """One pass worth of statistics: measures of tK on the grid plus the
    weight moment over K, with full covariance on the Monte Carlo path."""
    engine = engine or Engine()
    measure = measure or _default_measure(body)
    grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in grid):
        raise ValueError("dilation grid must be positive")
    if 1.0 not in grid:
        grid.append(1.0)
    grid = tuple(sorted(set(grid)))
    idx1 = grid.index(1.0)

    method = engine.method
    closed = _closed_curve_stats(body, measure, grid)
    if method == "quadrature":
        raise ValueError("body statistics use closed forms or Monte Carlo; "
                         "quadrature applies to smooth integrands only")
    if method == "exact" and closed is None:
        raise ValueError(f"no closed form for body {body.descriptor()!r}")
    if method in ("auto", "exact") and closed is not None:
        k = len(grid) + 1
        return BodyStats(
            body_desc=body.descriptor(),
            measure=measure,
            method="closed-form",
            seed=engine.seed,
            stream=engine.stream,
            samples=0,
            t_grid=grid,
            idx1=idx1,
            means=closed,
            cov=np.zeros((k, k)),
        )

    if measure.tag == "complex-gaussian":
        if not isinstance(body, ReinhardtBody) or body.dim != measure.n:
            raise ValueError("body/measure mismatch")

        def columns(pts: np.ndarray) -> np.ndarray:
            r = moduli(pts)
            w = (pts * pts).sum(axis=1)
            cols = [body.base(r / t).astype(float) for t in grid]
            cols.append(w * cols[idx1])
            return np.stack(cols, axis=1)

    else:
        if not isinstance(body, UnconditionalBody) or body.dim != measure.n:
            raise ValueError("body/measure mismatch")

        def columns(pts: np.ndarray) -> np.ndarray:
            a = np.abs(pts)
            w = a.sum(axis=1)
            cols = [body.base(a / t).astype(float) for t in grid]
            cols.append(w * cols[idx1])
            return np.stack(cols, axis=1)

    nsamp, means, cov = _integ.run_chunked(
        measure, engine.samples, engine.seed, engine.stream,
        columns, len(grid) + 1, engine.workers,
    )
    return BodyStats(
        body_desc=body.descriptor(),
        measure=measure,
        method=_integ.mc_method(engine.samples, engine.seed),
        seed=engine.seed,
        stream=engine.stream,
        samples=nsamp,
        t_grid=grid,
        idx1=idx1,
        means=means,
        cov=cov,
    )


# ---------------------------------------------------------------------------
# Criteria


def _slack_pieces(stats: BodyStats):
    """Criterion slack, gradient and reference pieces shared by the
    derivative and moment framings (they coincide algebraically)."""
    m, S = stats.m, stats.moment
    if stats.measure.tag == "complex-gaussian":
        c = 2.0 * stats.measure.n
        ref_moment = c * m + 2.0 * xlnx(1.0 - m)
        dref = c - (2.0 * math.log1p(-m) + 2.0) if m < 1.0 else math.inf
        deriv_ref = -2.0 * xlnx(1.0 - m)
    else:
        c = float(stats.measure.n)
        ref_moment = c * m + xlnx(1.0 - m)
        dref = c - (math.log1p(-m) + 1.0) if m < 1.0 else math.inf
        deriv_ref = -xlnx(1.0 - m)
    slack = ref_moment - S
    grad = np.zeros(len(stats.means))
    grad[stats.idx1] = dref
    grad[-1] = -1.0
    se = 0.0 if stats.deterministic else math.sqrt(max(float(grad @ stats.cov @ grad), 0.0))
    return slack, se, c, ref_moment, deriv_ref


def _marginal_se(stats: BodyStats, grad: np.ndarray) -> float:
    if stats.deterministic:
        return 0.0
    return math.sqrt(max(float(grad @ stats.cov @ grad), 0.0))


def derivative_at_one(
    body,
    measure: MeasureKind | None = None,
    engine: Engine | None = None,
    stats: BodyStats | None = None,
) -> Estimate:
    """d/dt measure(tK) at t = 1: 2n*measure - second moment for the
    complex Gaussian, n*measure - first absolute moment for the
    exponential measure; standard error propagated from the shared pass."""
    stats = stats or body_statistics(body, measure, (), engine)
    c = 2.0 * stats.measure.n if stats.measure.tag == "complex-gaussian" else float(stats.measure.n)
    grad = np.zeros(len(stats.means))
    grad[stats.idx1] = c
    grad[-1] = -1.0
    value = c * stats.m - stats.moment
    return Estimate(value, _marginal_se(stats, grad), stats.method, stats.samples)


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
        rec = {
            "kind": self.criterion,
            "body": self.body,
            "t": "",
            "value": self.lhs.value,
            "std_error": self.std_error,
            "reference": self.rhs.value,
            "margin": self.slack,
            "verdict": self.verdict,
            "seed": self.seed,
            "samples": self.samples,
        }
        return rec


def _degenerate(stats: BodyStats) -> str | None:
    if stats.m <= 0.0:
        return "degenerate: measure 0"
    if stats.m >= 1.0 - 1e-12:
        return "degenerate: measure 1 (dilation invariant)"
    return None


_Rechecks = Callable[[int], BodyStats]


def _rechecks(body, stats: BodyStats, engine: Engine) -> _Rechecks:
    """Recheck pass ``k`` (1..3): fresh seed ``engine.seed + k``, doubled
    samples, on ``stats.t_grid``; each pass is estimated once however many
    criteria or curve points ask for it."""

    @functools.cache
    def rechecked(k: int) -> BodyStats:
        e2 = replace(engine, method="mc", seed=engine.seed + k, samples=engine.samples * 2)
        return body_statistics(body, stats.measure, stats.t_grid, e2)

    return rechecked


def _certified_verdict(
    margin: float,
    se: float,
    deterministic: bool,
    recheck: Callable[[int], tuple[float, float]],
) -> tuple[str, str]:
    """Apply the holds / violated / inconclusive protocol; ``recheck(k)``
    is the (margin, std_error) of recheck pass k."""
    if deterministic:
        return ("holds", "") if margin >= -DET_TOL else ("violated", "deterministic margin")
    if margin >= -3.0 * se:
        return "holds", ""
    outcomes = []
    for k in range(1, _RECHECK_SEEDS + 1):
        m2, se2 = recheck(k)
        outcomes.append(m2 < -3.0 * se2)
    if all(outcomes):
        return "violated", "reproduced under 3 seeds at doubled samples"
    if not any(outcomes):
        return "holds", "initial 3-sigma excursion not reproduced"
    return "inconclusive", "rechecks disagree"


def _criterion_report(
    stats: BodyStats,
    rechecks: _Rechecks,
    criterion: str,
    with_entropy_form: bool = False,
) -> CriterionReport:
    note = _degenerate(stats)
    slack, se, c, ref_moment, deriv_ref = _slack_pieces(stats)
    if note is not None:
        zero = Estimate(0.0, 0.0, stats.method, stats.samples)
        return CriterionReport(criterion, stats.body_desc, zero, zero, 0.0, 0.0,
                               "holds", stats.seed, stats.samples, note=note)

    verdict, vnote = _certified_verdict(slack, se, stats.deterministic,
                                        lambda k: _slack_pieces(rechecks(k))[:2])

    if criterion == "derivative":
        gl = np.zeros(len(stats.means))
        gl[stats.idx1] = c
        gl[-1] = -1.0
        lhs = Estimate(c * stats.m - stats.moment, _marginal_se(stats, gl),
                       stats.method, stats.samples)
        gr = np.zeros(len(stats.means))
        gr[stats.idx1] = (2.0 if stats.measure.tag == "complex-gaussian" else 1.0) * (
            math.log1p(-stats.m) + 1.0
        )
        rhs = Estimate(deriv_ref, _marginal_se(stats, gr), stats.method, stats.samples)
    else:
        gl = np.zeros(len(stats.means))
        gl[-1] = 1.0
        lhs = Estimate(stats.moment, _marginal_se(stats, gl), stats.method, stats.samples)
        rhs = Estimate(ref_moment, _marginal_se(stats, _ref_grad(stats)), stats.method, stats.samples)

    entropy_form = None
    if with_entropy_form:
        half = 0.5 if stats.measure.tag == "complex-gaussian" else 1.0
        lhs_e = -xlnx(1.0 - stats.m)
        rhs_e = stats.measure.n * stats.m - half * stats.moment
        entropy_form = EntropyReport(
            lhs=lhs_e, rhs=rhs_e, slack=half * slack, std_error=half * se,
            lhs_method=stats.method, rhs_method=stats.method,
            note="complement-indicator entropy form of the moment criterion",
        )
    return CriterionReport(criterion, stats.body_desc, lhs, rhs, slack, se,
                           verdict, stats.seed, stats.samples,
                           entropy_form=entropy_form, note=vnote)


def _ref_grad(stats: BodyStats) -> np.ndarray:
    m = stats.m
    if stats.measure.tag == "complex-gaussian":
        d = 2.0 * stats.measure.n - (2.0 * math.log1p(-m) + 2.0)
    else:
        d = stats.measure.n - (math.log1p(-m) + 1.0)
    g = np.zeros(len(stats.means))
    g[stats.idx1] = d
    return g


def check_derivative_criterion(
    body,
    engine: Engine | None = None,
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """Dilation-derivative comparison against the calibrated comparison set."""
    engine = engine or Engine()
    _require_validated(body, experimental)
    stats = stats or body_statistics(body, None, (), engine)
    return _criterion_report(stats, _rechecks(body, stats, engine), "derivative")


def check_moment_criterion_gaussian(
    body: ReinhardtBody,
    engine: Engine | None = None,
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """Second-moment form: the |z|^2 mass of K must not exceed
    2n*m + 2(1-m)ln(1-m) at m = measure(K)."""
    engine = engine or Engine()
    _require_validated(body, experimental)
    if not isinstance(body, ReinhardtBody):
        raise TypeError("gaussian moment criterion applies to Reinhardt bodies")
    stats = stats or body_statistics(body, complex_gaussian(body.dim), (), engine)
    return _criterion_report(stats, _rechecks(body, stats, engine), "gaussian-moment")


def check_moment_criterion_exponential(
    body: UnconditionalBody,
    engine: Engine | None = None,
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> CriterionReport:
    """First-moment form under the exponential measure, with the
    complement-indicator entropy reformulation attached."""
    engine = engine or Engine()
    _require_validated(body, experimental)
    if not isinstance(body, UnconditionalBody):
        raise TypeError("exponential moment criterion applies to unconditional bodies")
    stats = stats or body_statistics(body, exponential(body.dim), (), engine)
    return _criterion_report(stats, _rechecks(body, stats, engine), "exponential-moment",
                             with_entropy_form=True)


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

    @property
    def margin_sigmas(self) -> float:
        """Margin in std_error units; +-inf on deterministic paths unless
        the margin is itself zero."""
        if self.margin_se > 0:
            return self.margin / self.margin_se
        return 0.0 if self.margin == 0 else math.copysign(math.inf, self.margin)


@dataclass(frozen=True)
class DilationReport:
    body: str
    measure: str
    method: str
    seed: int
    samples: int
    points: tuple[DilationPoint, ...]
    note: str = ""

    @property
    def verdict(self) -> str:
        verdicts = {p.verdict for p in self.points}
        if "violated" in verdicts:
            return "violated"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "holds"

    def to_records(self) -> list[dict]:
        return [
            {
                "kind": "dilation",
                "body": self.body,
                "t": p.t,
                "value": p.value,
                "std_error": p.std_error,
                "reference": p.reference,
                "margin": p.margin,
                "verdict": p.verdict,
                "seed": self.seed,
                "samples": self.samples,
            }
            for p in self.points
        ]


def _reference_curve_value(measure_tag: str, m1: float, t: float) -> float:
    # measure of the calibrated comparison set at scale t, written directly
    # in the t = 1 measure: 1 - (1-m)^(t^2) (cylinder) or 1 - (1-m)^t (strip)
    e = t * t if measure_tag == "complex-gaussian" else t
    return -math.expm1(e * math.log1p(-m1))


def _curve_margin(stats: BodyStats, i: int) -> tuple[float, float, float, str]:
    t = stats.t_grid[i]
    m1 = stats.m
    if i == stats.idx1:
        # the calibration makes t = 1 an identity; computing the reference
        # through log1p/expm1 would leave a +-1 ulp margin with a 0 std error
        return 0.0, 0.0, m1, ">="
    ref = _reference_curve_value(stats.measure.tag, m1, t)
    e = t * t if stats.measure.tag == "complex-gaussian" else t
    dref = e * (1.0 - m1) ** (e - 1.0) if m1 < 1.0 else 0.0
    body_val = stats.curve_value(i)
    direction = ">=" if t >= 1.0 else "<="
    raw = body_val - ref
    margin = raw if t >= 1.0 else -raw
    if stats.deterministic:
        return margin, 0.0, ref, direction
    var = (
        float(stats.cov[i, i])
        + dref * dref * float(stats.cov[stats.idx1, stats.idx1])
        - 2.0 * dref * float(stats.cov[i, stats.idx1])
    )
    return margin, math.sqrt(max(var, 0.0)), ref, direction


def dilation_curve(
    body,
    measure: MeasureKind | None = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    engine: Engine | None = None,
    stats: BodyStats | None = None,
    experimental: bool = False,
) -> DilationReport:
    """measure(tK) on a grid versus the calibrated comparison curve.

    For t >= 1 the body curve must dominate the reference; for t < 1 the
    reversed inequality is required (derived behavior for the complex
    case, flagged in the report note).
    """
    engine = engine or Engine()
    _require_validated(body, experimental)
    stats = stats or body_statistics(body, measure, t_grid, engine)
    return _curve_report(stats, _rechecks(body, stats, engine))


def _curve_report(stats: BodyStats, rechecks: _Rechecks) -> DilationReport:
    note = _degenerate(stats)
    reversed_note = (
        "t<1 direction is derived from the t>=1 inequality by rescaling"
        if any(t < 1.0 for t in stats.t_grid) and stats.measure.tag == "complex-gaussian"
        else ""
    )
    points = []
    for i, t in enumerate(stats.t_grid):
        if note is not None:
            val = stats.curve_value(i)
            points.append(DilationPoint(t, val, 0.0, val, 0.0, 0.0,
                                        ">=" if t >= 1 else "<=", "holds"))
            continue
        margin, mse, ref, direction = _curve_margin(stats, i)
        verdict, _ = _certified_verdict(margin, mse, stats.deterministic,
                                        lambda k, _i=i: _curve_margin(rechecks(k), _i)[:2])
        points.append(
            DilationPoint(t, stats.curve_value(i),
                          math.sqrt(max(float(stats.cov[i, i]), 0.0)) if not stats.deterministic else 0.0,
                          ref, margin, mse, direction, verdict)
        )
    return DilationReport(
        body=stats.body_desc,
        measure=stats.measure.describe(),
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
        verdicts = [p.verdict for p in self.parts] + [self.combined.verdict]
        if "violated" in verdicts:
            return "violated"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "holds"


def check_tensorization(
    parts: Sequence[ReinhardtBody],
    engine: Engine | None = None,
    experimental: bool = False,
) -> TensorizationReport:
    """Each factor's criterion plus the criterion of the Cartesian product
    (stability of the dilation inequality under products)."""
    engine = engine or Engine()
    part_reports = tuple(
        check_moment_criterion_gaussian(
            b, replace(engine, stream=engine.stream + i), experimental=experimental
        )
        for i, b in enumerate(parts)
    )
    combined_body = product(*parts)
    combined = check_moment_criterion_gaussian(
        combined_body, replace(engine, stream=engine.stream + len(parts)),
        experimental=experimental,
    )
    return TensorizationReport(parts=part_reports, combined=combined)


@dataclass(frozen=True)
class FullCheckReport:
    body: str
    derivative: CriterionReport
    moment: CriterionReport
    curve: DilationReport

    @property
    def verdict(self) -> str:
        verdicts = [self.derivative.verdict, self.moment.verdict, self.curve.verdict]
        if "violated" in verdicts:
            return "violated"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "holds"

    @property
    def min_margin(self) -> float:
        margins = [self.derivative.slack, self.moment.slack]
        margins.extend(p.margin for p in self.curve.points)
        return min(margins)

    def to_records(self) -> list[dict]:
        return [self.derivative.to_record(), self.moment.to_record()] + self.curve.to_records()


def full_check(
    body,
    engine: Engine | None = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    experimental: bool = False,
) -> FullCheckReport:
    """Derivative criterion, moment criterion and dilation curve from one
    shared estimation pass; a Monte Carlo violation costs at most 3 shared
    recheck passes."""
    engine = engine or Engine()
    _require_validated(body, experimental)
    measure = _default_measure(body)
    stats = body_statistics(body, measure, t_grid, engine)
    rechecks = _rechecks(body, stats, engine)
    deriv = _criterion_report(stats, rechecks, "derivative")
    if measure.tag == "complex-gaussian":
        mom = _criterion_report(stats, rechecks, "gaussian-moment")
    else:
        mom = _criterion_report(stats, rechecks, "exponential-moment", with_entropy_form=True)
    curve = _curve_report(stats, rechecks)
    return FullCheckReport(body=stats.body_desc, derivative=deriv, moment=mom, curve=curve)


@dataclass(frozen=True)
class SweepReport:
    family: str
    count: int
    holds: int
    violated: int
    inconclusive: int
    min_margin: float
    rows: tuple[dict, ...]

    @property
    def certified_violations(self) -> int:
        return self.violated


def _random_body(family: str, n: int, rng: np.random.Generator):
    from . import bodies as _b

    if family == "polydisc":
        return _b.polydisc(rng.uniform(0.3, 2.5, size=n))
    if family == "weighted-lp-ball":
        p = float(rng.uniform(0.7, 4.0))
        w = rng.uniform(0.5, 2.0, size=n)
        scale = float(rng.uniform(0.8, 2.5)) * n ** (1.0 / p)
        return _b.reinhardt_lp_ball(w, p, scale)
    if family == "cube":
        return _b.cube_body(float(rng.uniform(0.3, 2.0)), n)
    if family == "lp-ball":
        p = float(rng.uniform(1.0, 5.0))
        w = rng.uniform(0.5, 2.0, size=n)
        scale = float(rng.uniform(0.8, 2.5)) * n ** (1.0 / p)
        return _b.unconditional_lp_ball(p, n, scale, w)
    if family == "box":
        return _b.box_body(rng.uniform(0.3, 2.5, size=n))
    raise ValueError(f"unknown sweep family {family!r}")


def sweep(
    family: str,
    count: int,
    dims: Sequence[int],
    engine: Engine | None = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> SweepReport:
    """Randomized constructor sweep: ``count`` bodies of the family with
    dimensions cycling through ``dims``, each checked on its own sample
    stream of the same seed."""
    engine = engine or Engine()
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng([engine.seed, 0x5EED])
    rows = []
    holds = violated = inconclusive = 0
    min_margin = math.inf
    for i in range(count):
        n = int(dims[i % len(dims)])
        body = _random_body(family, n, rng)
        rep = full_check(body, replace(engine, stream=engine.stream + i), t_grid)
        verdict = rep.verdict
        holds += verdict == "holds"
        violated += verdict == "violated"
        inconclusive += verdict == "inconclusive"
        min_margin = min(min_margin, rep.min_margin)
        rows.append(
            {
                "index": i,
                "body": rep.body,
                "n": n,
                "verdict": verdict,
                "min_margin": rep.min_margin,
                "method": rep.curve.method,
                "seed": engine.seed,
                "stream": engine.stream + i,
                "samples": rep.curve.samples,
            }
        )
    return SweepReport(
        family=family,
        count=count,
        holds=holds,
        violated=violated,
        inconclusive=inconclusive,
        min_margin=min_margin,
        rows=tuple(rows),
    )
