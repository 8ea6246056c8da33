"""Sharp moment comparison for unconditional norms under the n-fold
symmetric exponential measure.

For exponents p >= q > 0 the p-th norm moment is controlled by the q-th:

    (E ||x||^p)^(1/p) <= C(p, q) * (E ||x||^q)^(1/q),
    C(p, q) = Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q),

with the coordinate functional |x_1| attaining the constant.  Both moments
are estimated on one shared sample stream, so their errors are positively
correlated and the ratio is much tighter than the individual moments.
The estimate is Monte Carlo only; its verdict comes from
:func:`integrate.certify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import integrate as _integ
from .bodies import UnconditionalBody
from .integrate import Engine, Estimate, Pass
from .measures import abs_moment_exponential, exponential, fold_columns

__all__ = [
    "MAX_EXPONENT",
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


def _check_exponents(p: float, q: float) -> None:
    if not (0.0 < q <= p <= MAX_EXPONENT):
        raise ValueError(f"need 0 < q <= p <= {MAX_EXPONENT}, got p={p}, q={q}")


def cpq(p: float, q: float) -> float:
    """Best constant Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q); >= 1, with
    equality exactly at p = q."""
    _check_exponents(p, q)
    return abs_moment_exponential(p) ** (1.0 / p) / abs_moment_exponential(q) ** (1.0 / q)


def coordinate_norm(index: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """|x_index|: the extremal (constant-attaining) functional."""

    def norm(x: np.ndarray) -> np.ndarray:
        if not 0 <= index < x.shape[1]:
            raise ValueError(f"coordinate index {index} outside [0, {x.shape[1]})")
        return np.abs(x[:, index])

    return norm


def linf_norm() -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: fold_columns(np.maximum, np.abs(x))


def l1_norm() -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: fold_columns(np.add, np.abs(x))


def lp_norm(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """(sum_k |x_k|^p)^(1/p); the max norm at p = inf."""
    if not p >= 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    if np.isinf(p):
        return linf_norm()
    return lambda x: fold_columns(np.add, np.abs(x) ** p) ** (1.0 / p)


def gauge_norm(body: UnconditionalBody) -> Callable[[np.ndarray], np.ndarray]:
    """Minkowski gauge of an unconditional body as a norm evaluator: the
    body's own gauge at |x|.  A body without a gauge, or one unbounded
    along some axis (its gauge vanishes there), raises ``ValueError``."""
    gauge = body.gauge
    if gauge is None:
        raise ValueError(f"body {body.descriptor()!r} has no gauge")
    if not (gauge(np.eye(body.dim)) > 0).all():
        raise ValueError("gauge of an unbounded body is not a norm")
    return lambda x: gauge(np.abs(x))


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
    engine: Engine | None = None,
    norm_desc: str = "",
) -> MomentPair:
    """Estimate (E||x||^p)^(1/p) / (E||x||^q)^(1/q) on one stream and
    compare against C(p, q).

    The standard error of the ratio comes from the delta method on
    (log of) the two raw moments including their covariance.
    """
    engine = engine or Engine()
    _check_exponents(p, q)
    measure = exponential(n)  # rejects n < 1 before the norm sees an empty array
    if isinstance(norm, UnconditionalBody):
        norm_desc = norm_desc or f"gauge[{norm.descriptor()}]"
        if norm.dim != n:
            raise ValueError(f"norm body {norm.descriptor()!r} has dimension {norm.dim}, "
                             f"not n = {n}")
        norm = gauge_norm(norm)
    norm_desc = norm_desc or getattr(norm, "__name__", "norm")
    bad = check_norm_contract(norm, n, seed=engine.seed)
    if bad:
        raise ValueError(f"norm contract violated: {'; '.join(bad)}")

    def columns(x: np.ndarray) -> np.ndarray:
        # the draws are |x|; the contract check made the norm sign-invariant
        v = np.asarray(norm(x), dtype=float)
        if not np.isfinite(v).all():
            raise _integ.NonFiniteIntegrandError("norm returned non-finite values")
        return np.stack([v**p, v**q], axis=1)

    def run(e: Engine) -> Pass:
        return _integ.estimate(e, measure, columns, 2,
                               subject=f"the moment ratio of {norm_desc}")

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

    bound = cpq(p, q)
    est = run(engine)
    moment_p, moment_q, ratio, ratio_se = moments(est)
    verdict, note = _integ.certify(est, margin, _integ.rechecks(engine, run))
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
