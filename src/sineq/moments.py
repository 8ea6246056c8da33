"""Sharp moment comparison for unconditional norms under the n-fold
symmetric exponential measure.

For exponents p >= q > 0 the p-th norm moment is controlled by the q-th:

    (E ||x||^p)^(1/p) <= C(p, q) * (E ||x||^q)^(1/q),
    C(p, q) = Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q),

with the coordinate functional |x_1| attaining the constant.

Where the law of ||x|| is elementary the norm carries its moments
E||x||^r as ``moment_law`` (:func:`_named`), set where the norm is made:

* ``coord:K``: |x_K| is Exp(1), so E||x||^r = Gamma(r+1) and the ratio is
  :func:`cpq` to the bit;
* ``linf``, ``lp:inf`` and the gauge of a box of positive radii a_k
  (cube, box): max_k |x_k| / a_k is a maximum of independent
  exponentials of rates h_k = a_k (h = 1 for the norms), so
  E||x||^r = Gamma(r+1) sum_{S != {}} (-1)^(|S|+1) (sum_{k in S} h_k)^(-r),
  n terms in the binomial form when the rates are equal, 2^n - 1 otherwise;
* ``l1``, ``lp:1`` and the gauge of an l_1 ball of equal radii s:
  ||x||_1 is Gamma(n, 1), so E||x||^r = Gamma(n+r) / Gamma(n) * s^(-r).

The alternating sum cancels as n grows; against 40-digit ``decimal`` its
relative error stays below 1e-12 up to ``MAX_LAW_DIM`` coordinates, and
above that the norm has no law.  With a law, :func:`moment_ratio` hands
the two moments to :func:`integrate.estimate` as its closed form, so
"auto" and "exact" take it; "mc" draws.  Every other norm (``lp:P`` for
other P, l_p ball gauges, ``norm_ball``, user callables) is estimated by
Monte Carlo, both moments on one shared sample stream, so their errors
are positively correlated and the ratio is much tighter than either
moment.  The verdict comes from :func:`integrate.certify`.  The norm
factories name their evaluators (``linf``, ``l1``, ``lp:P``, ``coord:K``,
and a gauge after its body's descriptor), one name per norm, and records
carry that name; ``lp:P`` is :func:`measures.lp_rows`, the kernel of the
l_p ball gauges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import integrate as _integ
from .bodies import UnconditionalBody
from .integrate import Engine, Estimate, Pass
from .measures import abs_moment_exponential, exponential, fold_columns, lp_rows

__all__ = [
    "MAX_EXPONENT",
    "MAX_LAW_DIM",
    "cpq",
    "MomentPair",
    "moment_ratio",
    "coordinate_norm",
    "linf_norm",
    "l1_norm",
    "lp_norm",
    "gauge_norm",
]

MAX_EXPONENT = 30.0  # Monte Carlo tail variance explodes beyond this
# the max law's alternating sum is within 1e-12 relative of 40-digit
# decimal up to here (5.2e-13 at 14 coordinates, 1.5e-12 at 15)
MAX_LAW_DIM = 14


def cpq(p: float, q: float) -> float:
    """Best constant Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q); >= 1, with
    equality exactly at p = q."""
    if not (0.0 < q <= p <= MAX_EXPONENT):
        raise ValueError(f"need 0 < q <= p <= {MAX_EXPONENT}, got p={p}, q={q}")
    return abs_moment_exponential(p) ** (1.0 / p) / abs_moment_exponential(q) ** (1.0 / q)


MomentLaw = Callable[[int, float], "float | None"]


def _moment_law(p: float, radii: Sequence[float] | None = None) -> MomentLaw | None:
    """The moment law of the gauge of the :class:`bodies.Law` of exponent
    ``p`` and radii ``radii`` (all 1 in any dimension when None), or None:
    at p = inf, positive radii, the max law (its alternating sum's rounded
    terms summed exactly by ``math.fsum``; None above ``MAX_LAW_DIM``
    coordinates); at p = 1, equal radii, the Gamma(n) law (as Gamma(r+1)
    prod_{j<n} (1 + r/j), finite at any n).  Both give None in a dimension
    other than the radii's."""
    some = radii or (1.0,)  # unit radii pass both tests in any dimension
    if not (p == math.inf and min(some) > 0 or p == 1 and len(set(some)) == 1):
        return None

    def law(n: int, r: float) -> float | None:
        a = (1.0,) * n if radii is None else tuple(radii)
        if len(a) != n or (p == math.inf and n > MAX_LAW_DIM):
            return None
        gamma = abs_moment_exponential(r)
        if p == 1:
            return gamma * math.prod(1.0 + r / j for j in range(1, n)) * a[0] ** -r
        if len(set(a)) == 1:  # the binomial form, n terms
            terms = [(-1) ** (k + 1) * math.comb(n, k) * k ** -r for k in range(1, n + 1)]
            return gamma * (a[0] ** -r * math.fsum(terms))
        terms = [(-1) ** (size + 1) * math.fsum(S) ** -r
                 for size in range(1, n + 1) for S in itertools.combinations(a, size)]
        return gamma * math.fsum(terms)

    return law


def _named(name: str, norm: Callable[[np.ndarray], np.ndarray], law: MomentLaw | None = None):
    """``norm`` under ``name``, the text :func:`moment_ratio` records for
    it, with its ``moment_law``: law(n, r) is E||x||^r under the
    n-dimensional exponential measure, or None where the law gives no
    value to 1e-12; a norm without a law has None."""
    norm.__name__ = norm.__qualname__ = name
    norm.moment_law = law
    return norm


def coordinate_norm(index: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """|x_index|: the extremal (constant-attaining) functional.  The norm
    and its moment law refuse a dimension without coordinate ``index``."""

    def check(n: int) -> None:
        if not 0 <= index < n:
            raise ValueError(f"coordinate index {index} outside [0, {n})")

    def norm(x: np.ndarray) -> np.ndarray:
        check(x.shape[1])
        return np.abs(x[:, index])

    def law(n: int, r: float) -> float:
        check(n)
        return abs_moment_exponential(r)

    return _named(f"coord:{index}", norm, law)


def linf_norm() -> Callable[[np.ndarray], np.ndarray]:
    return _named("linf", lambda x: fold_columns(np.maximum, np.abs(x)), _moment_law(math.inf))


def l1_norm() -> Callable[[np.ndarray], np.ndarray]:
    return _named("l1", lambda x: fold_columns(np.add, np.abs(x)), _moment_law(1.0))


def lp_norm(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """(sum_k |x_k|^p)^(1/p) by :func:`measures.lp_rows`, homogeneous at
    large p too; the max norm at p = inf.  Its name ``lp:P`` spells p by
    its shortest repr less a trailing ``.0``: one name per exponent.  The
    max norm and the l_1 norm carry their moment laws."""
    if not p >= 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    name = "lp:" + repr(float(p)).removesuffix(".0")
    return _named(name, lambda x: lp_rows(x, p), _moment_law(p))


def gauge_norm(body: UnconditionalBody) -> Callable[[np.ndarray], np.ndarray]:
    """Minkowski gauge of an unconditional body as a norm evaluator, named
    after the body's descriptor: the body's own gauge at a copy |x|, so
    ``x`` is never written (the package's gauges only read their
    input, and an l_p ball's makes no second copy).  A body
    without a gauge, or one unbounded along some axis (its gauge vanishes
    there), raises ``ValueError``.  A body whose law is a box of positive
    radii, or an l_1 ball of equal radii, gives its norm the moment law of
    its dimension (an unvalidated body has no law)."""
    gauge = body.gauge
    if gauge is None:
        raise ValueError(f"body {body.descriptor()!r} has no gauge")
    if not (gauge(np.eye(body.dim)) > 0).all():
        raise ValueError("gauge of an unbounded body is not a norm")
    law = None if body.law is None else _moment_law(body.law.p, body.law.radii)
    return _named(f"gauge[{body.descriptor()}]", lambda x: gauge(np.abs(x)), law)


@dataclass(frozen=True)
class MomentPair:
    """Two norm moments on a shared stream plus the comparison verdict."""

    p: float
    q: float
    n: int
    norm_desc: str
    moment_p: Estimate  # (E ||x||^p)^(1/p)
    moment_q: Estimate  # (E ||x||^q)^(1/q)
    ratio: float
    ratio_se: float
    bound: float
    verdict: str
    seed: int
    samples: int
    verdict_note: str = ""  # how the verdict was certified; not part of the record

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_record(self) -> dict:
        return {
            "kind": "moment-ratio",
            "norm": self.norm_desc,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "moment_p": self.moment_p.value,
            "moment_q": self.moment_q.value,
            "ratio": self.ratio,
            "ratio_se": self.ratio_se,
            "bound": self.bound,
            "seed": self.seed,
            **_integ.record(self.ratio, self.ratio_se, self.bound, self.bound - self.ratio,
                            self.ratio_se, self.verdict, self.samples, self.moment_p.method),
        }


def check_norm_contract(
    norm: Callable[[np.ndarray], np.ndarray], n: int, samples: int = 2000, seed: int = 0
) -> list[str]:
    """Sampled unconditionality (sign flips) and positive homogeneity."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, n)) * rng.uniform(0.2, 3.0, size=(samples, 1))
    vals = np.asarray(norm(x), dtype=float)
    bad = []
    if (vals < 0).any():
        bad.append("negative norm values")
    flips = rng.choice([-1.0, 1.0], size=x.shape)
    if not np.allclose(vals, norm(flips * x), rtol=1e-9, atol=1e-12):
        bad.append("not sign-invariant")
    c = 1.0 + rng.random()
    if not np.allclose(c * vals, norm(c * x), rtol=1e-9, atol=1e-12):
        bad.append("not positively homogeneous")
    return bad


def moment_ratio(
    norm: Callable[[np.ndarray], np.ndarray] | UnconditionalBody,
    p: float,
    q: float,
    n: int,
    engine: Engine = Engine(),
    norm_desc: str = "",
) -> MomentPair:
    """Estimate (E||x||^p)^(1/p) / (E||x||^q)^(1/q) on one stream and
    compare against C(p, q).

    ``norm`` is an evaluator, recorded by ``norm_desc`` or else by its
    ``__name__``, or a body standing for its :func:`gauge_norm`.  A norm
    whose ``moment_law`` gives both moments at ``n`` has a closed form,
    which "auto" and "exact" take; otherwise "auto" is Monte Carlo and
    "exact" raises.  A norm without a ``moment_law`` must pass the sampled
    :func:`check_norm_contract`; one with a law is a norm by construction.
    The standard error of a Monte Carlo ratio comes from the delta method
    on (log of) the two raw moments including their covariance.
    """
    bound = cpq(p, q)
    measure = exponential(n)  # rejects n < 1 before the norm sees an empty array
    if isinstance(norm, UnconditionalBody):
        if norm.dim != n:
            raise ValueError(f"norm body {norm.descriptor()!r} has dimension {norm.dim}, "
                             f"not n = {n}")
        norm = gauge_norm(norm)
    norm_desc = norm_desc or getattr(norm, "__name__", "norm")
    law = getattr(norm, "moment_law", None)
    bad = [] if law else check_norm_contract(norm, n, seed=engine.seed)
    if bad:
        raise ValueError(f"norm contract violated: {'; '.join(bad)}")

    def columns(x: np.ndarray) -> np.ndarray:
        # the draws are |x|; the norm is sign-invariant by construction or
        # by the contract check
        v = np.asarray(norm(x), dtype=float)
        cols = np.empty((2, v.size))
        np.power(v, p, out=cols[0])
        np.power(v, q, out=cols[1])
        return cols

    def moments(est: Pass) -> tuple[Estimate, Estimate, float, float]:
        """(E||x||^p)^(1/p) and (E||x||^q)^(1/q), their ratio and its error."""
        A, B = float(est.means[0]), float(est.means[1])
        if A <= 0 or B <= 0:
            raise ValueError("norm moments vanished; degenerate norm")
        mom_p, mom_q = A ** (1.0 / p), B ** (1.0 / q)
        ratio = mom_p / mom_q
        # d ln(ratio) = dA / (p A) - dB / (q B)
        ratio_se = ratio * est.se({0: 1.0 / (p * A), 1: -1.0 / (q * B)})
        return (Estimate(mom_p, est.se({0: mom_p / (p * A)}), est.method, est.samples),
                Estimate(mom_q, est.se({1: mom_q / (q * B)}), est.method, est.samples),
                ratio, ratio_se)

    def margin(est: Pass) -> tuple[float, float]:
        ratio, ratio_se = moments(est)[2:]
        return bound - ratio, ratio_se

    def closed():
        means = [law(n, p), law(n, q)]
        return None if None in means else means

    est = _integ.estimate(engine, measure, columns, 2, closed if law else None,
                          subject=lambda: f"the moment ratio of {norm_desc}")
    moment_p, moment_q, ratio, ratio_se = moments(est)
    verdict, note = _integ.certify(est, margin)
    return MomentPair(
        p=p,
        q=q,
        n=n,
        norm_desc=norm_desc,
        moment_p=moment_p,
        moment_q=moment_q,
        ratio=ratio,
        ratio_se=ratio_se,
        bound=bound,
        verdict=verdict,
        seed=engine.seed,
        samples=est.samples,
        verdict_note=note,
    )
