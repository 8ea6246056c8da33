"""Entropy functional and the entropy inequalities behind the dilation
comparisons.

The entropy of a nonnegative function f against a probability measure mu is

    Ent(f) = int f ln f dmu - (int f dmu) * ln(int f dmu),

with 0*ln 0 = 0.  It is nonnegative and 1-homogeneous.

The one-dimensional workhorse inequality states: for any Borel probability
measure mu on [0, inf) and any bounded nondecreasing f >= 0,

    Ent(f) <= - int f(x) * (1 + ln mu((x, inf))) dmu(x).

For step functions both sides have exact closed forms: over each constancy
interval the right side integrates to a difference of s*ln(s) values of the
tail s = mu((x, inf)), so no numerical integration is involved.  When the
measure has a top atom and f is positive there, the right side is +inf and
the inequality holds vacuously; that verdict is reported explicitly.

The multidimensional version bounds Ent(g) against the complex Gaussian by
int g(z) (|z|^2/2 - n) for bounded g that is per-coordinate phase invariant
and nondecreasing in each modulus; the exponential analogue uses the weight
(|x|_1 - n).  Taking g = 1 - indicator(K) turns these into the moment form
of the dilation inequality, which is how `verify` consumes this module.

Both checks read their sides off one :class:`integrate.Pass` of three
column means (g ln g, g and the right side's integrand) on every path,
the closed form of a box complement included, and take their verdicts
from :func:`integrate.certify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import integrate as _integ
from .bodies import ReinhardtBody, UnconditionalBody
from .integrate import Engine, Pass
from .measures import FACTORS, MeasureKind, coordinate_sum, xlnx

__all__ = [
    "StepFunction",
    "TailMeasure1D",
    "MonotoneRadialFunction",
    "EntropyReport",
    "entropy",
    "inverse_tail",
    "check_lemma_1d",
    "check_lemma_multidim",
    "check_subadditivity",
    "complement_indicator",
]


def _np_xlnx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = (v > 0) & (v != 1)  # 0 and 1 give +0.0, which out holds: no log
    out[pos] = v[pos] * np.log(v[pos])
    return out


@lru_cache(maxsize=8)
def _graded_unit_rule(per_panel: int = 16, levels: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on (0, 1) with panels geometrically
    graded into both endpoints.

    Entropy integrands carry v*ln(v)-type singularities wherever the
    function vanishes (and the 1-D inequality's right side has ln(1-v) at
    the far end); grading the panels makes the composite rule accurate to
    ~1e-12 for such integrands where a single global rule stalls around
    1e-5.
    """
    x, w = np.polynomial.legendre.leggauss(per_panel)
    breaks = [0.0] + [0.5 * 2.0 ** (-k) for k in range(levels, -1, -1)]
    nodes, weights = [], []
    for lo, hi in zip(breaks, breaks[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(w * half)
    left_nodes = np.concatenate(nodes)
    left_weights = np.concatenate(weights)
    all_nodes = np.concatenate([left_nodes, 1.0 - left_nodes[::-1]])
    all_weights = np.concatenate([left_weights, left_weights[::-1]])
    return all_nodes, all_weights


def _sample_entropy(vals: np.ndarray, weights: np.ndarray) -> float:
    """Ent of a function with values ``vals`` at nodes or atoms carrying
    ``weights``."""
    return float(weights @ _np_xlnx(vals)) - xlnx(max(float(weights @ vals), 0.0))


@dataclass(frozen=True)
class StepFunction:
    """Nondecreasing nonnegative step function on [0, inf).

    ``values[i]`` holds on [jumps[i-1], jumps[i]) with jumps[-1] = 0 and
    jumps[m] = inf implied, so len(values) == len(jumps) + 1.
    """

    jumps: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        jumps = tuple(float(x) for x in self.jumps)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "values", values)
        if len(values) != len(jumps) + 1:
            raise ValueError("need len(values) == len(jumps) + 1")
        if any(x < 0 for x in jumps) or any(b <= a for a, b in zip(jumps, jumps[1:])):
            raise ValueError("jump points must be nonnegative and strictly increasing")
        if any(v < 0 for v in values):
            raise ValueError("step values must be nonnegative")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("step values must be nondecreasing")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.jumps), np.asarray(x, dtype=float), side="right")
        return np.asarray(self.values)[idx]

    @staticmethod
    def tail_indicator(a: float) -> "StepFunction":
        """1 on [a, inf), 0 before: the equality case of the 1-D inequality."""
        return StepFunction((a,), (0.0, 1.0))

    def scaled(self, c: float) -> "StepFunction":
        if c < 0:
            raise ValueError("scale must be >= 0")
        return StepFunction(self.jumps, tuple(c * v for v in self.values))


@dataclass(frozen=True)
class TailMeasure1D:
    """Borel probability measure on [0, inf) with computable tails.

    Either a known-CDF factor ("radial-mu" with tail exp(-x^2/2), or
    "exponential-1d" with tail exp(-x); see :class:`measures.Factor`) or a
    finite discrete measure given by atoms.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind in FACTORS:
            if self.atoms is not None:
                raise ValueError("known-CDF measures carry no atoms")
            return
        if self.kind != "discrete":
            raise ValueError(f"unknown measure kind {self.kind!r}")
        atoms = tuple(sorted((float(a), float(m)) for a, m in (self.atoms or ())))
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("discrete measure needs at least one atom")
        locs = [a for a, _ in atoms]
        if any(a < 0 for a in locs) or any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("atom locations must be nonnegative and distinct")
        masses = [m for _, m in atoms]
        if any(m < 0 for m in masses) or abs(sum(masses) - 1.0) > 1e-12:
            raise ValueError("atom masses must be nonnegative and sum to 1")

    @staticmethod
    def radial_mu() -> "TailMeasure1D":
        return TailMeasure1D("radial-mu")

    @staticmethod
    def exponential() -> "TailMeasure1D":
        return TailMeasure1D("exponential-1d")

    @staticmethod
    def discrete(locations: Sequence[float], masses: Sequence[float]) -> "TailMeasure1D":
        return TailMeasure1D("discrete", tuple(zip(locations, masses)))

    @property
    def factor(self):
        """The :class:`measures.Factor` of a known-CDF kind, else None."""
        return FACTORS.get(self.kind)

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        if self.factor is not None:
            return self.factor.cdf(x)
        return math.fsum(m for a, m in self.atoms if a <= x)

    def tail(self, x: float) -> float:
        """mu((x, inf)); note the strict inequality at atoms."""
        if self.factor is not None:
            return self.factor.tail(x) if x >= 0 else 1.0
        return math.fsum(m for a, m in self.atoms if a > x)

    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights integrating against the measure: the atoms of
        a discrete measure, else the graded rule in the CDF variable."""
        if self.factor is None:
            return np.array([a for a, _ in self.atoms]), np.array([m for _, m in self.atoms])
        v, w = _graded_unit_rule()
        return self.factor.quantile(v), w


def inverse_tail(measure: TailMeasure1D, y: float) -> float:
    """H(y) = inf{t >= 0 : mu((t, inf)) <= y}, nonincreasing in y.

    Returns 0 as soon as the tail at 0 is already <= y, and +inf when no
    finite t works (continuous full-support measures at y = 0).
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must lie in [0, 1], got {y}")
    if measure.tail(0.0) <= y:
        return 0.0
    if measure.factor is not None:
        return measure.factor.inverse_tail(y) if y > 0 else math.inf
    suffix = 0.0
    # scan atoms from the top: tail(a_k) is the mass strictly above a_k
    for loc, mass in reversed(measure.atoms):
        if suffix <= y:
            candidate = loc
        suffix += mass
    return candidate


def _piece_boundaries(f: StepFunction) -> list[float]:
    return [0.0, *f.jumps, math.inf]


def _piece_masses(f: StepFunction, measure: TailMeasure1D) -> list[float]:
    bounds = _piece_boundaries(f)
    if measure.factor is not None:
        cdf = [measure.cdf(b) for b in bounds[:-1]] + [1.0]
        return [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    masses = [0.0] * (len(bounds) - 1)
    jumps = np.asarray(f.jumps)
    for loc, mass in measure.atoms:
        masses[int(np.searchsorted(jumps, loc, side="right"))] += mass
    return masses


def entropy(
    f: StepFunction | Callable[[np.ndarray], np.ndarray],
    measure: TailMeasure1D,
) -> float:
    """Ent(f) against a 1-D tail measure.

    Exact for step functions (tail differences) and for discrete measures
    (finite sums); general callables against the known-CDF measures use
    graded composite quadrature in the CDF variable, accurate well beyond
    the documented 1e-6 for bounded f (the grading absorbs the v*ln(v)
    singularity where f vanishes).
    """
    if isinstance(f, StepFunction):
        masses = _piece_masses(f, measure)
        mean = math.fsum(v * m for v, m in zip(f.values, masses))
        flnf = math.fsum(xlnx(v) * m for v, m in zip(f.values, masses))
        return flnf - xlnx(mean)
    nodes, w = measure.rule()
    vals = np.asarray(f(nodes), dtype=float)
    if (vals < 0).any():
        raise ValueError("entropy requires a nonnegative function")
    return _sample_entropy(vals, w)


@dataclass(frozen=True)
class EntropyReport:
    """Both sides of an entropy inequality plus the verdict bookkeeping
    (``verdict`` is "" on invalid input; ``verdict_note`` stays out of the
    record).  ``samples`` is the pass's own count, 0 on a closed form."""

    lhs: float
    rhs: float
    slack: float
    std_error: float
    method: str
    status: str = "ok"  # ok | invalid-input
    note: str = ""
    verdict: str = ""
    verdict_note: str = ""
    samples: int = 0

    @property
    def holds(self) -> bool:
        return self.status == "ok" and self.verdict == "holds"

    def to_record(self) -> dict:
        return dict(_integ.record(self.lhs, self.std_error, self.rhs, self.slack, self.std_error,
                                  self.verdict, self.samples, self.method),
                    status=self.status, note=self.note)


def _check_monotone_callable(f, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if (vals < -1e-12).any():
        raise ValueError("f must be nonnegative")
    if (np.diff(vals) < -1e-9).any():
        raise ValueError("f must be nondecreasing")
    return vals


def _discrete_rhs(measure: TailMeasure1D, vals: np.ndarray) -> float:
    """-sum f(a) (1 + ln tail(a)) mass(a) over the atoms; +inf as soon as
    f is positive on an atom with nothing above it."""
    terms = []
    for (loc, mass), v in zip(measure.atoms, vals):
        if v * mass == 0.0:
            continue
        t = measure.tail(loc)
        if t == 0.0:
            return math.inf
        terms.append(-v * (1.0 + math.log(t)) * mass)
    return math.fsum(terms)


def check_lemma_1d(
    f: StepFunction | Callable[[np.ndarray], np.ndarray],
    measure: TailMeasure1D,
    engine: Engine | None = None,
) -> EntropyReport:
    """The 1-D entropy inequality: Ent(f) vs -int f (1 + ln tail) dmu.

    Step functions get the exact oracle on both sides: with s = tail at
    the piece boundaries, each piece of height v contributes
    v * (s_hi*ln(s_hi) - s_lo*ln(s_lo)) for the boundary tails taken in
    decreasing order.  A zero tail under positive f makes the right side
    +inf (vacuous truth); with a discrete measure this happens at the top
    atom whenever f is positive there.

    General callables are monotonicity-checked on the quadrature grid and
    fall back to the graded CDF-domain rule on both sides (documented
    tolerance 1e-6 for bounded f; the rule itself does far better);
    against discrete measures they stay exact.

    So the lemma has one path for each input: "exact" for step functions
    and discrete measures, "quadrature" otherwise.  ``engine`` may force
    that path or leave it to "auto"; forcing another raises ``ValueError``.
    """
    step = isinstance(f, StepFunction)
    path = "exact" if step or measure.factor is None else "quadrature"
    forced = (engine or Engine()).method
    if forced not in ("auto", path):
        raise ValueError(f"the 1-D entropy lemma has no {forced} path for this input "
                         f"(it takes {path}: closed forms for step functions and discrete "
                         "measures, graded quadrature for callables against a factor measure)")
    method, note = "closed-form", ""
    if step and measure.factor is not None:
        lhs = entropy(f, measure)
        bounds = _piece_boundaries(f)
        tails = [measure.tail(b) for b in bounds[:-1]] + [0.0]
        rhs = math.fsum(
            v * (xlnx(t_hi) - xlnx(t_lo))
            for v, t_lo, t_hi in zip(f.values, tails, tails[1:])
        )
    else:
        nodes, w = measure.rule()
        vals = f(nodes) if step else _check_monotone_callable(f, nodes)
        lhs = entropy(f, measure) if step else _sample_entropy(vals, w)
        if measure.factor is None:
            rhs = _discrete_rhs(measure, vals)
        else:
            # ln tail(x) = -u(x)
            rhs = float(w @ (-vals * (1.0 - measure.factor.u(nodes))))
            method, note = "quadrature(graded)", "general-f quadrature path, tolerance ~1e-6"
    if rhs == math.inf:
        note = "rhs infinite: tail vanishes where f > 0"
    slack = rhs - lhs  # inf when rhs is: Ent(f) is finite for bounded f
    verdict = "holds" if _integ.within_tolerance(slack, 0.0) else "violated"
    return EntropyReport(lhs, rhs, slack, 0.0, method, note=note, verdict=verdict)


# ---------------------------------------------------------------------------
# Multidimensional inequality


@dataclass(frozen=True)
class MonotoneRadialFunction:
    """Bounded function of the coordinate radii, nondecreasing in each.

    Phase invariance is structural (the evaluator sees only radii).  When
    the function is the complement indicator 1 - 1_K of a body, keep the
    body attached: slices become tail indicators and several paths turn
    exact.
    """

    dim: int
    bound: float
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    complement_body: ReinhardtBody | UnconditionalBody | None = None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(r, dtype=float)), dtype=float)

    def hypothesis_violations(self, samples: int = 1000, rng_seed: int = 0) -> list[str]:
        """Sampled check of boundedness, nonnegativity and coordinatewise
        monotonicity (predicates are black boxes, so this is probabilistic)."""
        rng = np.random.default_rng(rng_seed)
        lo = rng.exponential(size=(samples, self.dim))
        hi = lo + rng.exponential(size=(samples, self.dim))
        g_lo, g_hi = self(lo), self(hi)
        bad: list[str] = []
        if (g_lo < -1e-12).any() or (g_hi < -1e-12).any():
            bad.append("negative values sampled")
        if (g_lo > self.bound + 1e-9).any() or (g_hi > self.bound + 1e-9).any():
            bad.append("declared bound exceeded")
        if (g_lo > g_hi + 1e-9).any():
            bad.append("decreasing along a coordinatewise increase")
        return bad


def complement_indicator(body: ReinhardtBody | UnconditionalBody) -> MonotoneRadialFunction:
    """g = 1 - 1_K on radius space; monotone since the body region is
    downward closed."""
    return MonotoneRadialFunction(
        dim=body.dim,
        bound=1.0,
        evaluator=lambda r: 1.0 - body.radial_member(np.atleast_2d(r)).astype(float),
        complement_body=body,
    )


def _entropy_check(g, n, engine, measure, columns, closed, layout, quadrature=False):
    """Ent(g) against the right side of an inequality, both read off one
    pass of three columns; ``layout`` gives the places of the means of
    g ln g, of g and of the right side's integrand.  A g that breaks its
    hypotheses gets the invalid-input report."""
    if g.dim != n:
        raise ValueError(f"function dimension {g.dim} != n = {n}")
    bad = g.hypothesis_violations(rng_seed=engine.seed)
    if bad:
        return EntropyReport(
            lhs=math.nan, rhs=math.nan, slack=math.nan, std_error=0.0,
            method="none",
            status="invalid-input", note="; ".join(bad),
        )
    a, b, w = layout

    def run(e: Engine) -> Pass:
        return _integ.estimate(e, measure, columns, 3, closed, quadrature, "this g")

    def sides(est: Pass) -> tuple[float, float, float, float]:
        """lhs, rhs, slack and its error; Ent = A - B ln B from the means
        A of g ln g and B of g."""
        A, B, W = (float(est.means[i]) for i in layout)
        lhs, dlhs_dB = A - xlnx(max(B, 0.0)), -((math.log(B) + 1.0) if B > 0 else 0.0)
        return lhs, W, W - lhs, est.se({a: -1.0, b: -dlhs_dB, w: 1.0})

    est = run(engine)
    verdict, note = _integ.certify(est, lambda p: sides(p)[2:], _integ.rechecks(engine, run))
    return EntropyReport(*sides(est), est.method, verdict=verdict, verdict_note=note,
                         samples=est.samples)


def check_lemma_multidim(
    g: MonotoneRadialFunction,
    n: int,
    measure_tag: str = "complex-gaussian",
    engine: Engine | None = None,
) -> EntropyReport:
    """Ent(g) <= int g * weight, the multidimensional entropy inequality.

    The weight is sum_k u_k - n with u_k = r_k^d/d the factor's unit
    exponential coordinate: |z|^2/2 - n for the complex Gaussian, |x|_1 - n
    for the exponential measure.

    Engines: "exact" (complement indicator of a coordinate-box body),
    "quadrature" (tensor Gauss-Laguerre, n <= 4, smooth g only), "mc"
    (shared-sample estimate of both sides with a delta-method standard
    error for the slack).  "auto" picks exact when available, else mc.
    """
    engine = engine or Engine()
    if measure_tag not in ("complex-gaussian", "exponential"):
        raise ValueError(f"measure must be complex-gaussian or exponential, got {measure_tag!r}")
    factor = MeasureKind(measure_tag, n).factor
    forms = _integ.box_forms(g.complement_body, factor)
    closed = None
    if forms is not None:
        # g = 1 - 1_K takes the values 0 and 1, so g ln g vanishes; as -0.0,
        # Ent = A - (1-m) ln(1-m) is -xlnx(1-m) to the bit, at m = 0 and 1 too
        m = forms.curve[0]
        closed = [-0.0, 1.0 - m, factor.entropy_sides(m, forms.moment, n)[1]]

    def columns(r: np.ndarray) -> np.ndarray:
        vals = g(r)
        return np.stack([_np_xlnx(vals), vals, vals * (coordinate_sum(factor.u, r) - n)], axis=1)

    return _entropy_check(g, n, engine, MeasureKind(factor.tag, n), columns, closed, (0, 1, 2),
                          quadrature=True)


# ---------------------------------------------------------------------------
# Subadditivity


def _bisected_section(body, r: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each coordinate's section c_k(r) and its active mask, k = 0..n-1, by
    vectorized bisection on the membership predicate, for bodies without an
    exact section (custom shadows, norm balls).  c is capped at 64, where
    either factor's tail is at most e^-64."""
    for k in range(r.shape[1]):
        pts = r.copy()
        pts[:, k] = 0.0
        active = body.radial_member(pts)
        c = np.zeros(r.shape[0])
        if active.any():
            lo = np.zeros(int(active.sum()))
            hi = np.full_like(lo, 64.0)
            sub = pts[active]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                sub[:, k] = mid
                inside = body.radial_member(sub)
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
            c[active] = lo
        yield c, active


def _slice_entropies_indicator(body, factor, r: np.ndarray) -> np.ndarray:
    """Sum over coordinates of the slice entropies of g = 1 - 1_K at the
    sampled radius vectors.

    Downward closure makes every coordinate section an interval [0, c], so
    the slice of g is a tail indicator with entropy -s*ln(s), s = factor
    tail at c.  The body's exact section gives c (inf, so s = 0, along an
    unbounded coordinate); bisection is the fallback for bodies without one.
    """
    section = body.section or partial(_bisected_section, body)
    total = np.zeros(r.shape[0])
    for c, active in section(r):
        s = factor.tail(c)
        # s ln s is NaN at s = 0: a zero term or an empty section adds nothing
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(total, s * np.log(s), out=total, where=active & (s > 0))
    return total


def _slice_entropies_general(
    g: MonotoneRadialFunction, factor, r: np.ndarray
) -> np.ndarray:
    # the slice integrand g*ln(g) is x*ln(x)-singular wherever g vanishes,
    # so the graded rule is required; plain Gauss-Laguerre biases the sum
    # by ~1e-3 per slice
    v, w = _graded_unit_rule(per_panel=8, levels=30)
    nodes = factor.quantile(v)
    order = len(nodes)
    m, n = r.shape
    total = np.zeros(m)
    block = max(1, (1 << 20) // order)
    for k in range(n):
        for lo_i in range(0, m, block):
            sub = r[lo_i : lo_i + block]
            rep = np.repeat(sub, order, axis=0)
            rep[:, k] = np.tile(nodes, sub.shape[0])
            vals = g(rep).reshape(sub.shape[0], order)
            means = vals @ w
            flnf = _np_xlnx(vals) @ w
            total[lo_i : lo_i + block] += flnf - _np_xlnx(means)
    return total


def check_subadditivity(
    g: MonotoneRadialFunction,
    n: int,
    factor: str = "radial-mu",
    engine: Engine | None = None,
) -> EntropyReport:
    """Ent of g against the n-fold product factor measure, versus the
    average over the product measure of the summed per-coordinate slice
    entropies.  Subadditivity of entropy makes the left side the smaller
    one; this check measures both sides, it does not re-derive the fact.
    Engines: "exact" (complement indicator of a coordinate-box body), "mc"
    and "auto" (exact when available, else mc).
    """
    engine = engine or Engine()
    if factor not in FACTORS:
        raise ValueError(f"factor must be radial-mu or exponential-1d, got {factor!r}")
    body = g.complement_body
    forms = _integ.box_forms(body, FACTORS[factor])
    closed = None if forms is None else [forms.slice_entropy, -0.0, 1.0 - forms.curve[0]]

    def columns(r: np.ndarray) -> np.ndarray:
        if body is not None:
            slices = _slice_entropies_indicator(body, FACTORS[factor], r)
        else:
            slices = _slice_entropies_general(g, FACTORS[factor], r)
        vals = g(r)
        return np.stack([slices, _np_xlnx(vals), vals], axis=1)

    return _entropy_check(g, n, engine, MeasureKind(factor, n), columns, closed, (1, 2, 0))
