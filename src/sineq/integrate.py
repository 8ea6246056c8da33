"""Reproducible numerical integration against the package's reference
measures: chunked counter-based Monte Carlo and tensor Gauss-Laguerre
quadrature.

Reproducibility contract
------------------------
All Monte Carlo draws come from the Philox counter-based generator keyed
by ``(seed, stream_index)``.  Sampling is organized in fixed blocks of
``CHUNK`` points; block ``c`` always starts the Philox counter at
``c * 2**64``, so the content of a block depends only on
``(seed, stream_index, c)`` and never on which worker produced it or how
many points were requested in total.  A block that is only partly used
draws just the ``take`` rows it needs: Philox fills ``standard_normal``
and ``random`` row-major in counter order, so a block's first ``take``
rows are the same whatever the request size.  Partial sums are reduced in
block order with exact summation, which makes every estimate
bit-identical across runs and across any degree of parallelism for equal
``(seed, samples)``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import NonFiniteIntegrandError
from .measures import FACTORS, MeasureKind, complex_gaussian, exponential

__all__ = [
    "CHUNK",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "Estimate",
    "Engine",
    "SampleStream",
    "NonFiniteIntegrandError",
    "sample_complex_gaussian",
    "sample_exponential",
    "sample_radial",
    "mc_measure",
    "mc_integral",
    "tensor_quadrature",
    "SampleMoments",
    "chunk_indices",
    "draw_points",
    "point_drawer",
    "orthant_map",
    "delta_se",
]

CHUNK = 1 << 17
DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
MAX_QUADRATURE_ORDER = 180  # laggauss weight computation overflows beyond this


@dataclass(frozen=True)
class Estimate:
    """A numerical value with provenance.

    ``std_error`` is 0 exactly when the method is deterministic
    (closed form or quadrature); for Monte Carlo it is the sample standard
    deviation of the integrand divided by sqrt(samples).
    """

    value: float
    std_error: float
    method: str
    samples: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    @property
    def deterministic(self) -> bool:
        return self.std_error == 0.0 and not self.method.startswith("mc")

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class Engine:
    """Estimation configuration shared by the checking modules.

    ``method``: "auto" picks the exact closed form when the body supports
    one and Monte Carlo otherwise; "exact", "mc" and "quadrature" force a
    path (forcing "exact" on a body without closed forms raises).
    """

    method: str = "auto"
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    stream: int = 0
    order: int = 64
    workers: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("auto", "exact", "mc", "quadrature"):
            raise ValueError(f"unknown engine method {self.method!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass
class SampleStream:
    """Cursor into the counter-based sample space.

    Identical ``(seed, stream_index, counter)`` always yields identical
    draws; the counter advances by whole blocks, so interleaving draw
    calls with different counts never shifts later blocks.
    """

    seed: int
    stream_index: int = 0
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_index = int(self.stream_index) & 0xFFFFFFFFFFFFFFFF

    def generator(self, block: int) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        counter = np.array([0, block, 0, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def draw(self, draw_fn: Callable[[np.random.Generator, int], np.ndarray], count: int) -> np.ndarray:
        """Materialize ``count`` points, consuming whole blocks."""
        blocks = max(1, -(-count // CHUNK))
        pieces = [draw_fn(self.generator(self.counter + b), min(CHUNK, count - b * CHUNK))
                  for b in range(blocks)]
        self.counter += blocks
        return np.concatenate(pieces, axis=0) if len(pieces) > 1 else pieces[0]


def point_drawer(measure: MeasureKind) -> Callable[[np.random.Generator, int], np.ndarray]:
    """The Philox kernel ``(generator, count) -> points`` of a measure."""
    n = measure.n
    if measure.tag == "complex-gaussian":
        return lambda gen, count: gen.standard_normal((count, 2 * n))
    quantile = measure.factor.quantile
    if measure.tag == "exponential":
        # Laplace quantile from one uniform per coordinate: sign from the
        # high bit, magnitude by the factor quantile of the rest
        def laplace(gen: np.random.Generator, count: int) -> np.ndarray:
            v = gen.random((count, n))
            neg = v < 0.5
            mag = quantile(np.where(neg, 2.0 * v, 2.0 * v - 1.0))
            return np.where(neg, -mag, mag)

        return laplace
    return lambda gen, count: quantile(gen.random((count, n)))


def _sample(measure: MeasureKind, stream: SampleStream, count: int | None) -> np.ndarray:
    pts = stream.draw(point_drawer(measure), count or 1)
    return pts if count is not None else pts[0]


def sample_complex_gaussian(n: int, stream: SampleStream, count: int | None = None) -> np.ndarray:
    """Points of C^n as 2n interleaved reals; each |z_k|^2 has mean 2."""
    return _sample(complex_gaussian(n), stream, count)


def sample_exponential(n: int, stream: SampleStream, count: int | None = None) -> np.ndarray:
    """Points of R^n with i.i.d. symmetric unit-rate exponential coordinates."""
    return _sample(exponential(n), stream, count)


def sample_radial(n: int, stream: SampleStream, count: int | None = None) -> np.ndarray:
    """Vectors in [0, inf)^n with i.i.d. coordinates of density r*exp(-r^2/2)."""
    return _sample(MeasureKind("radial-mu", n), stream, count)


def chunk_indices(samples: int) -> list[tuple[int, int]]:
    """(block index, take count) covering ``samples`` points."""
    blocks = -(-samples // CHUNK)
    return [(b, min(CHUNK, samples - b * CHUNK)) for b in range(blocks)]


def draw_points(measure: MeasureKind, stream: SampleStream, block: int, take: int) -> np.ndarray:
    """The first ``take`` rows of block ``block`` (``take <= CHUNK``)."""
    return point_drawer(measure)(stream.generator(block), take)


class SampleMoments:
    """First and second cross moments of per-sample column vectors,
    accumulated chunk by chunk and reduced in chunk order.

    Chunks may be added out of order (``add_chunk`` records the index);
    finalization sorts by index and sums exactly, so the result does not
    depend on scheduling.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._chunks: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def add_chunk(self, index: int, cols: np.ndarray) -> None:
        if cols.ndim != 2 or cols.shape[1] != self.ncols:
            raise ValueError(f"expected (m, {self.ncols}) columns, got {cols.shape}")
        self._chunks.append(
            (index, cols.shape[0], cols.sum(axis=0), cols.T @ cols)
        )

    def finalize(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Returns (n, mean vector, covariance matrix of the mean)."""
        self._chunks.sort(key=lambda t: t[0])
        n = sum(c[1] for c in self._chunks)
        if n < 2:
            raise ValueError("need at least 2 samples")
        k = self.ncols
        sums = np.array([math.fsum(c[2][j] for c in self._chunks) for j in range(k)])
        prods = np.array(
            [[math.fsum(c[3][i, j] for c in self._chunks) for j in range(k)] for i in range(k)]
        )
        mean = sums / n
        cov = (prods - n * np.outer(mean, mean)) / (n - 1)
        return n, mean, cov / n


def delta_se(grad, cov: np.ndarray) -> float:
    """Delta-method standard error sqrt(grad . cov . grad) of a smooth
    function of estimated means, ``grad`` its gradient at the means and
    ``cov`` the covariance of the means."""
    g = np.asarray(grad, dtype=float)
    return math.sqrt(max(float(g @ cov @ g), 0.0))


def run_chunked(
    measure: MeasureKind,
    samples: int,
    seed: int,
    stream: int,
    columns: Callable[[np.ndarray], np.ndarray],
    ncols: int,
    workers: int = 1,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Evaluate per-sample column vectors over ``samples`` reproducible
    draws and return (n, means, covariance of the means)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base = SampleStream(seed, stream)
    acc = SampleMoments(ncols)

    def work(block_take: tuple[int, int]) -> tuple[int, np.ndarray]:
        block, take = block_take
        pts = draw_points(measure, base, block, take)
        return block, np.atleast_2d(np.asarray(columns(pts), dtype=float))

    tasks = chunk_indices(samples)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for block, cols in pool.map(work, tasks):
                acc.add_chunk(block, cols)
    else:
        for block, cols in map(work, tasks):
            acc.add_chunk(block, cols)
    return acc.finalize()


def orthant_map(body, measure: MeasureKind) -> Callable[[np.ndarray], np.ndarray]:
    """The map from sample points of ``measure`` to the orthant points that
    ``body``'s predicate reads; checks that body and measure pair."""
    if getattr(body, "measure_tag", None) != measure.tag:
        raise ValueError(f"measure {measure.tag!r} does not pair with {type(body).__name__}")
    if body.dim != measure.n:
        raise ValueError(f"body dimension {body.dim} != measure dimension {measure.n}")
    return measure.orthant


def _body_indicator(body, measure: MeasureKind) -> Callable[[np.ndarray], np.ndarray]:
    orthant = orthant_map(body, measure)
    return lambda pts: body.base(orthant(pts))


def mc_method(samples: int, seed: int) -> str:
    return f"mc({samples}, {seed})"


def mc_measure(
    body,
    measure: MeasureKind,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    stream: int = 0,
    workers: int = 1,
) -> Estimate:
    """Indicator-mean estimate of the body's measure with binomial
    standard error; reproducible per (seed, stream)."""
    ind = _body_indicator(body, measure)
    n, mean, _ = run_chunked(
        measure, samples, seed, stream,
        lambda pts: ind(pts)[:, None].astype(float), 1, workers,
    )
    m = float(mean[0])
    se = math.sqrt(max(m * (1.0 - m), 0.0) / n)
    return Estimate(m, se, mc_method(samples, seed), n)


def mc_integral(
    integrand: Callable[[np.ndarray], np.ndarray],
    body=None,
    measure: MeasureKind | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    stream: int = 0,
    workers: int = 1,
) -> Estimate:
    """Mean of integrand * indicator(body) against the reference measure.

    The integrand is evaluated only on points inside the restriction, and
    any non-finite value there aborts with a diagnostic.
    """
    if measure is None:
        raise ValueError("measure kind is required")
    ind = _body_indicator(body, measure) if body is not None else None

    def columns(pts: np.ndarray) -> np.ndarray:
        vals = np.zeros(pts.shape[0])
        if ind is None:
            vals[:] = np.asarray(integrand(pts), dtype=float)
        else:
            inside = ind(pts)
            if inside.any():
                vals[inside] = np.asarray(integrand(pts[inside]), dtype=float)
        if not np.isfinite(vals).all():
            bad = int(np.nonzero(~np.isfinite(vals))[0][0])
            raise NonFiniteIntegrandError(
                f"integrand returned {vals[bad]} on a support point (chunk-local index {bad})"
            )
        return vals[:, None]

    n, mean, cov = run_chunked(measure, samples, seed, stream, columns, 1, workers)
    return Estimate(float(mean[0]), delta_se([1.0], cov), mc_method(samples, seed), n)


def laguerre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(
            f"quadrature order {order} exceeds {MAX_QUADRATURE_ORDER} "
            "(Laguerre weights overflow in binary64)"
        )
    return np.polynomial.laguerre.laggauss(order)


def tensor_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    n: int,
    order: int = 64,
    measure: str = "radial-mu",
) -> Estimate:
    """Deterministic product quadrature for phase-invariant integrands on
    the radius orthant [0, inf)^n.

    Per axis the substitution u = r^2/2 turns the radial factor measure
    into the unit-rate exponential, for which Gauss-Laguerre nodes of the
    given order apply; ``measure="exponential-1d"`` skips the substitution
    and integrates against exp(-u) directly.  Exact (<= 1e-10) for
    polynomials in u of degree below the order per axis.  Indicator
    integrands lose spectral accuracy: any fixed rule of this size has
    worst-case indicator error >= 1/(2*order) because some node carries
    at least 1/order of the total weight, so use Monte Carlo when jumps
    matter (measured error 4.4e-2 at order 64 on a product indicator).
    """
    if n < 1 or n > 4:
        raise ValueError(f"tensor quadrature supports 1 <= n <= 4, got {n}")
    if measure not in FACTORS:
        raise ValueError(f"unsupported quadrature measure {measure!r}")
    u, w = laguerre_rule(order)
    axis = FACTORS[measure].r(u)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(1)
    for _ in range(n):
        wts = np.outer(wts, w).ravel()
    vals = np.asarray(integrand(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({pts.shape[0]},)")
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrandError("integrand returned non-finite values on quadrature nodes")
    return Estimate(float(wts @ vals), 0.0, f"quadrature({order})", pts.shape[0])
