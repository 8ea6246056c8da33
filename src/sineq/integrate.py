"""Reproducible numerical integration against the package's reference
measures: chunked Monte Carlo over seeded blocks and tensor Gauss-Laguerre
quadrature.

Reproducibility contract
------------------------
All Monte Carlo draws come from :class:`SampleStream` ``(seed,
stream_index)`` in fixed blocks of ``CHUNK`` points: block ``b`` is its own
PCG64DXSM generator, seeded by the one integer
``seed | stream_index << 64 | b << 128``, so its content depends only on
``(seed, stream_index, b)``, never on the worker or the total request.
:func:`draw_points` is the one draw: rows ``[start, start + take)`` of one
block (the generator fills ``random`` row-major, one 64-bit output per
double, so it skips the rows before ``start`` with ``advance`` and the rows
are the same whatever the request size); :func:`chunk_indices` splits a
longer draw into blocks.  :func:`run_chunked` draws, evaluates and reduces
each block ``SUB`` rows at a time, while the sub-block is still in cache,
the sub-blocks of a block in order from its one generator (the bits of
skipping to each), and :class:`SampleMoments` combines the sub-block partials exactly, which
makes every estimate bit-identical across runs and across any degree of
parallelism for equal ``(seed, samples)``.  Every block, however short,
is drawn into one buffer that is kept for the next block and the next run,
so the points a ``columns`` callback gets are a view into a reused buffer,
valid only for that call.

What a block holds and how it is reduced is versioned by
``SAMPLING_CONTRACT``, which every record carries; a change to either
bumps the contract.  Contract 2: every measure draws its coordinate radii
directly, one uniform per coordinate through the factor quantile, since
the bodies of both families read nothing else (each is invariant under the
phase of every z_k or the sign of every x_k).  So ``complex-gaussian(n)``
draws the bits of ``radial-mu(n)`` and ``exponential(n)`` those of
``exponential-1d(n)``.  Contract 3 kept those draws and reduced each block
in sub-blocks of ``SUB`` rows, summing a block's columns row by row.
Contract 4 kept the draws and the sub-blocks and laid the columns out
column-major: a ``columns`` callback returns an (ncols, m) array, one row
per column (1-D for one column), :class:`Sublevels` or :class:`Indicators`.
Each sub-block's column sums are pairwise (``sum``); its cross product of
columns i <= j is one BLAS dot per piece of ``PIECE`` samples, the pieces
summed with ``math.fsum`` (no dot is long enough for OpenBLAS to split it
across threads, so no bit depends on the BLAS thread count); sums and
products are summed over all sub-blocks with ``math.fsum``.  Contracts 1 to
4 drew from Philox4x64-10 keyed by ``(seed, stream_index)``, block ``b`` at
counter ``b * 2**64``.  Contract 5 keeps everything else and draws each
block from its own PCG64DXSM generator, which costs less than half as much
per double: every seeded Monte Carlo number moved, no law did.

Estimation passes and verdicts
------------------------------
Every check reads its values off one :class:`Pass` (column means and their
covariance) made by :func:`estimate`, the one rule for the engine paths;
its quadrature path is the one use of the tensor Gauss-Laguerre rule.  A
NaN or inf column value, a NaN gauge or a predicate answer other than 0 or
1 aborts a pass (:func:`_evaluate`).  :func:`certify` is the one verdict
protocol: "holds" needs margin >= -:func:`tolerance` (3 * std_error,
``DET_TOL`` where that is 0), and a Monte Carlo margin below it is
"violated" only when all three :meth:`Pass.recheck` passes reproduce it
("inconclusive" when they disagree).  Those rechecks belong to the pass, so
every margin read off it shares them; :class:`Engine` refuses their
reserved streams.  :func:`record` writes the columns every check's record
shares, with the tolerance its verdict applied.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bodies import NonFiniteIntegrandError, closed_forms, require_finite
from .measures import FACTORS, MeasureKind

__all__ = [
    "SAMPLING_CONTRACT",
    "CHUNK",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "Estimate",
    "Engine",
    "SampleStream",
    "NonFiniteIntegrandError",
    "Pass",
    "estimate",
    "DET_TOL",
    "tolerance",
    "within_tolerance",
    "recheck_stream",
    "certify",
    "worst",
    "record",
    "measure_estimate",
    "mc_measure",
    "mc_integral",
    "tensor_quadrature",
    "SampleMoments",
    "Sublevels",
    "Indicators",
    "chunk_indices",
    "draw_points",
    "check_pairing",
]

SAMPLING_CONTRACT = 5
CHUNK = 1 << 17
SUB = 1 << 15  # rows drawn, evaluated and reduced at a time; divides CHUNK
# samples per BLAS dot of a cross product: OpenBLAS splits a dot of more
# than 10,000 entries across its threads, so its bits would depend on the
# thread count; divides SUB
PIECE = 1 << 13
DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
MAX_QUADRATURE_ORDER = 180  # laggauss weight computation overflows beyond this
DET_TOL = 1e-10
RECHECK_PASSES = 3
_RECHECK_SHIFT = 62


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


@dataclass(frozen=True)
class Engine:
    """Estimation configuration shared by the checking modules.

    ``method``: "auto" picks the exact closed form when the check has one
    and Monte Carlo otherwise; "exact", "mc" and "quadrature" force a path
    (:func:`estimate`; forcing a path the check does not have raises).
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
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0 <= self.stream < 1 << _RECHECK_SHIFT:
            raise ValueError(f"engine stream {self.stream} outside [0, 2**{_RECHECK_SHIFT}): "
                             "higher streams are reserved for rechecks")
        if not 2 <= self.order <= MAX_QUADRATURE_ORDER:
            raise ValueError(f"quadrature order must be in [2, {MAX_QUADRATURE_ORDER}], "
                             f"got {self.order}")


@dataclass
class SampleStream:
    """The sample stream ``(seed, stream_index)``, both in [0, 2**64);
    block ``b`` is ``generator(b)``, and :func:`draw_points` reads its
    points."""

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        # masking a value outside the range would alias another seed's draws
        self.seed, self.stream_index = int(self.seed), int(self.stream_index)
        for name, value in (("seed", self.seed), ("stream", self.stream_index)):
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")

    def generator(self, block: int) -> np.random.Generator:
        """The PCG64DXSM generator of block ``block``, seeded by one
        integer: a list or array key would alias keys that differ only in
        trailing zero words or in how their bits split into words, and an
        explicit seed reads no OS entropy."""
        key = self.seed | self.stream_index << 64 | int(block) << 128
        return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(key)))


def chunk_indices(samples: int) -> list[tuple[int, int]]:
    """(block index, take count) covering ``samples`` points."""
    blocks = -(-samples // CHUNK)
    return [(b, min(CHUNK, samples - b * CHUNK)) for b in range(blocks)]


def draw_points(measure: MeasureKind, stream: SampleStream, block: int, take: int,
                start: int = 0, out: np.ndarray | None = None,
                gen: np.random.Generator | None = None) -> np.ndarray:
    """Rows ``[start, start + take)`` of coordinate radii of block ``block``
    (``0 <= start``, ``1 <= take``, ``start + take <= CHUNK``): one uniform
    per coordinate through the factor quantile.  The generator skips the
    ``start * n`` doubles before them, one 64-bit output each.  With
    ``out``, a C-contiguous float64 array of n columns and at least
    ``take`` rows, the rows are written into its first ``take`` rows and
    that view is returned, with the bits of a fresh draw.  ``gen``, the
    block's generator after it drew exactly the rows before ``start``,
    continues the block in place of a new generator and its skip, with the
    same bits."""
    if not (0 <= start and 1 <= take and start + take <= CHUNK):
        raise ValueError(f"rows [{start}, {start + take}) are not rows of a "
                         f"{CHUNK}-row block")
    n = measure.n
    if out is not None:
        if not (out.dtype == np.float64 and out.flags.c_contiguous and out.ndim == 2
                and out.shape[1] == n and out.shape[0] >= take):
            raise ValueError(f"out must be a C-contiguous float64 array of {n} columns "
                             f"and at least {take} rows")
        out = out[:take]
    if gen is None:
        gen = stream.generator(block)
        if start:
            gen.bit_generator.advance(start * n)
    return measure.factor.quantile_in_place(gen.random((take, n), out=out))


class Sublevels(NamedTuple):
    """The per-sample columns of a gauge ``rho`` without the column matrix:
    the indicators 1[rho <= t] for each t of the increasing ``grid`` (nested
    sets), then ``weight`` * 1[rho <= grid[at]].

    ``rho <= t`` is ``rho / t <= 1.0`` to the bit for finite t > 0, the
    membership rule of a dilate; ``rho`` may be +inf, never NaN."""

    rho: np.ndarray
    grid: tuple[float, ...]
    weight: np.ndarray
    at: int

    def moments(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(count, column sums, cross products).  Indicator sums and
        products are counts; a weight cross entry reads only its own t (the
        weight column's sum for t >= grid[at], its own masked sum below), so
        no entry depends on the rest of the grid.  The weight column's sum
        and square are those :class:`SampleMoments` takes of it as a column
        (a finite weight >= 0 times a 0/1 mask is the masked weight)."""
        k, at = len(self.grid), self.at
        inside = [self.rho <= t for t in self.grid]
        counts = np.array([np.count_nonzero(m) for m in inside], dtype=float)
        held = self.weight * inside[at]
        total = held.sum()
        below = [(self.weight * inside[i]).sum() for i in range(at)]
        prods = np.empty((k + 1, k + 1))
        prods[:k, :k] = counts[np.minimum.outer(np.arange(k), np.arange(k))]
        prods[:k, k] = prods[k, :k] = below + [total] * (k - at)
        prods[k, k] = _dots(held, held[None])[0]
        return len(self.rho), np.append(counts, total), prods


class Indicators(NamedTuple):
    """The per-sample columns of a predicate without the column matrix: its
    answers ``inside`` at each t of a grid (a (k, m) bool array after
    :func:`_evaluate`), then ``weight`` * inside[at].  :meth:`moments` has
    the bits :class:`SampleMoments` takes of them as 0/1 floats: counts, and
    one :func:`_dots` of the weight column with every column."""

    inside: np.ndarray | Sequence
    weight: np.ndarray
    at: int

    def moments(self) -> tuple[int, np.ndarray, np.ndarray]:
        k, m = self.inside.shape
        rows = np.concatenate([self.inside, self.weight[None]])  # as floats
        held = np.multiply(rows[k], rows[self.at], out=rows[k])
        words = np.zeros((k, -(-m // 64)), dtype=np.uint64)  # the masks, 64 bits a word
        words.view(np.uint8)[:, :-(-m // 8)] = np.packbits(self.inside, axis=1)
        prods = np.empty((k + 1, k + 1))
        prods[:k, :k] = np.bitwise_count(words[:, None] & words[None]).sum(axis=2)
        prods[k] = prods[:, k] = _dots(held, rows)
        return m, np.append(prods.diagonal()[:k], held.sum()), prods


def _dots(a: np.ndarray, rows: np.ndarray) -> list[float]:
    """The dot product of ``a`` with each row of ``rows`` (as many entries
    each): one BLAS dot per consecutive piece of ``PIECE`` entries (the
    last one shorter), the pieces summed exactly (``math.fsum``)."""
    cut = a.size - a.size % PIECE
    whole = np.vecdot(a[:cut].reshape(-1, PIECE), rows[:, :cut].reshape(len(rows), -1, PIECE))
    tails = np.vecdot(a[cut:], rows[:, cut:]).tolist()
    return [math.fsum(pieces + [tail]) for pieces, tail in zip(whole.tolist(), tails)]


class SampleMoments:
    """Count, column sums and cross products of per-sample column vectors,
    added sub-block by sub-block and reduced exactly.

    ``add_chunk(cols)`` takes the columns of some rows, a C-contiguous
    (ncols, m) array, one row per column (1-D for one column),
    :class:`Sublevels` or :class:`Indicators`, in any order from any thread.
    Each column is summed pairwise (``sum``) and each pair of columns
    i <= j multiplied by :func:`_dots`; ``finalize`` sums those partials
    over all sub-blocks with ``math.fsum``, which is exact, so the result
    does not depend on scheduling.  One bool column is counted: its sum
    and its square are the count, the sums of the column as 0/1 floats.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._parts: list[tuple[int, np.ndarray, np.ndarray]] = []  # (rows, sums, products)

    def add_chunk(self, cols) -> None:
        if isinstance(cols, (Sublevels, Indicators)):
            self._parts.append(cols.moments())
            return
        if self.ncols == 1 and cols.dtype == bool:
            count = float(np.count_nonzero(cols))
            self._parts.append((cols.size, np.array([count]), np.array([[count]])))
            return
        rows = cols.reshape(self.ncols, -1)
        prods = np.empty((self.ncols, self.ncols))
        for i in range(self.ncols):
            prods[i, i:] = prods[i:, i] = _dots(rows[i], rows[i:])
        self._parts.append((rows.shape[1], rows.sum(axis=1), prods))

    def finalize(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Returns (n, mean vector, covariance matrix of the mean)."""
        n = sum(count for count, _, _ in self._parts)
        if n < 2:
            raise ValueError("need at least 2 samples")
        if len(self._parts) == 1:
            # the fsum of one term is the term, except that of -0.0 is 0.0
            _, sums, prods = self._parts[0]
            sums, prods = sums + 0.0, prods + 0.0
        else:
            sums = np.array([math.fsum(col) for col in
                             zip(*(s.tolist() for _, s, _ in self._parts))])
            prods = np.reshape([math.fsum(col) for col in
                                zip(*(p.ravel().tolist() for _, _, p in self._parts))],
                               (self.ncols, self.ncols))
        mean = sums / n
        cov = (prods - n * np.outer(mean, mean)) / (n - 1)
        return n, mean, cov / n


# At most one sub-block draw buffer is kept between blocks and runs: a
# fresh (SUB, n) array per sub-block is handed back to the OS and faulted
# in again by the next one.  Taking it and keeping it are one list
# operation each, atomic, so no two threads ever hold the same buffer.
_spare: list[np.ndarray] = []


def _take_buffer(size: int) -> np.ndarray:
    """The spare draw buffer, or a new one when the spare is taken or has
    fewer than ``size`` doubles."""
    try:
        flat = _spare.pop()
    except IndexError:
        return np.empty(size)
    return np.empty(size) if flat.size < size else flat


def _keep_buffer(flat: np.ndarray) -> None:
    """Keep ``flat`` as the spare, in place of any other."""
    _spare[:] = [flat]


def run_chunked(
    measure: MeasureKind,
    samples: int,
    seed: int,
    stream: int,
    columns: Callable[[np.ndarray], np.ndarray | Sublevels | Indicators],
    ncols: int,
    workers: int = 1,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Evaluate per-sample column vectors over ``samples`` reproducible
    draws and return (n, means, covariance of the means).  Each block is
    drawn, evaluated and reduced ``SUB`` rows at a time; workers take whole
    blocks; fewer than 2 samples raise ``ValueError``.

    The points ``columns`` gets are a view into a reused buffer, valid only
    for that call: every block draws its sub-blocks into one buffer, which
    the next block and the next run reuse, so ``columns`` copies any points
    it keeps."""
    base = SampleStream(seed, stream)
    acc = SampleMoments(ncols)

    def work(block_take: tuple[int, int]) -> None:
        block, take = block_take
        flat = _take_buffer(SUB * measure.n)
        buf = flat[:SUB * measure.n].reshape(SUB, measure.n)
        gen = base.generator(block)  # one generator, its sub-blocks drawn in order
        try:
            for start in range(0, take, SUB):
                pts = draw_points(measure, base, block, min(SUB, take - start), start, buf, gen)
                acc.add_chunk(_evaluate(columns, pts, ncols))
        finally:
            _keep_buffer(flat)

    tasks = chunk_indices(samples)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, tasks))
    else:
        for task in tasks:
            work(task)
    return acc.finalize()


def _evaluate(columns, points: np.ndarray, ncols: int):
    """``columns(points)``, all finite (a gauge may be +inf), as a
    C-contiguous (ncols, m) float array, one row per column (1-D for one
    column; a C-contiguous float array is not copied), as one bool column
    of m entries, which cannot be non-finite, as :class:`Sublevels` or as
    :class:`Indicators` with bool masks (predicate answers 0 or 1)."""
    cols = columns(points)
    if isinstance(cols, Sublevels):
        if np.isnan(cols.rho).any():  # +inf is a zero radius, NaN no value
            require_finite(np.where(np.isnan(cols.rho), np.nan, 0.0), "gauge", points)
        return cols
    if isinstance(cols, Indicators):
        require_finite(cols.weight, "integrand", points)
        inside = np.empty((len(cols.inside), len(points)), dtype=bool)
        for row, answer in zip(inside, map(np.asarray, cols.inside)):
            row[...] = answer  # a number other than 0 or 1 reads True: refused
            if answer.dtype != bool and not (answer == row).all():
                require_finite(answer, "predicate", points)
                at = int(np.argmin(answer == row))
                raise ValueError(f"predicate returned {answer.flat[at]} at {points[at].tolist()}")
        return cols._replace(inside=inside)
    m = len(points)
    if ncols == 1 and isinstance(cols, np.ndarray) and cols.dtype == bool and cols.shape == (m,):
        return cols
    cols = np.ascontiguousarray(cols, dtype=float)
    if cols.shape != (ncols, m) and not (ncols == 1 and cols.shape == (m,)):
        raise ValueError(f"integrand returned shape {cols.shape}, expected {(ncols, m)}: "
                         "one row per column")
    return require_finite(cols, "integrand", points)


def check_pairing(body, measure: MeasureKind) -> None:
    """Raise unless ``body`` is of ``measure``'s family and dimension, so
    that the radii ``measure`` draws are the ones ``body.base`` reads."""
    if getattr(body, "measure_tag", None) != measure.tag:
        raise ValueError(f"measure {measure.tag!r} does not pair with {type(body).__name__}")
    if body.dim != measure.n:
        raise ValueError(f"body dimension {body.dim} != measure dimension {measure.n}")


@dataclass(frozen=True)
class Pass:
    """One estimation pass: the means of per-sample columns and the
    covariance of those means (zeros on a deterministic path).  ``redraw(k)``
    of a Monte Carlo pass made by :func:`estimate` is the (samples, means,
    cov) of recheck ``k``: its columns drawn once more at its own seed with
    twice its samples, on stream :func:`recheck_stream`."""

    method: str  # closed-form | quadrature(order) | mc(samples, seed)
    seed: int
    stream: int
    samples: int
    means: np.ndarray
    cov: np.ndarray
    redraw: Callable[[int], tuple[int, np.ndarray, np.ndarray]] | None = field(
        default=None, kw_only=True, repr=False, compare=False)
    _rechecks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def deterministic(self) -> bool:
        return not self.method.startswith("mc(")

    def recheck(self, k: int) -> Pass:
        """Recheck pass ``k`` (1..3), made once: a copy of this pass, of its
        type, with the means and covariance of its redraw and no rechecks."""
        if k not in self._rechecks:
            n, means, cov = self.redraw(k)
            self._rechecks[k] = replace(self, method=f"mc({n}, {self.seed})", samples=n,
                                        stream=recheck_stream(self.stream, k), means=means,
                                        cov=cov, redraw=None)
        return self._rechecks[k]

    def se(self, grad: dict[int, float]) -> float:
        """Delta-method standard error sqrt(g . cov . g) of a smooth function
        of the means whose gradient g at the means has the entries ``grad``
        (index: value, all others 0); 0 on a deterministic path."""
        if self.deterministic:
            return 0.0
        g = np.zeros(len(self.means))
        for i, c in grad.items():
            g[i] = c
        return math.sqrt(max(float(g @ self.cov @ g), 0.0))


def estimate(engine: Engine, measure: MeasureKind,
             columns: Callable[[np.ndarray], np.ndarray | Sublevels | Indicators], ncols: int,
             closed: Callable[[], Sequence[float] | None] | None = None,
             quadrature: bool = False,
             subject: Callable[[], str] = lambda: "this check") -> Pass:
    """The pass of ``engine`` over ``columns`` of ``measure``'s points.
    "auto" takes the exact column means ``closed()`` when the caller has
    them (not None) and Monte Carlo otherwise; ``closed`` is called on the
    "auto" and "exact" paths only.  "quadrature" needs columns smooth in
    the points (``quadrature``), n <= 4, and evaluates them once on the
    tensor Gauss-Laguerre rule.  A path that does not apply raises
    ``ValueError`` naming ``subject()``, which is called for that only."""
    method = engine.method
    means = closed() if closed is not None and method in ("auto", "exact") else None
    if method == "auto":
        method = "exact" if means is not None else "mc"
    if method == "exact":
        if means is None:
            raise ValueError(f"no closed form for {subject()}")
        means = np.array(means, dtype=float)
        return Pass("closed-form", engine.seed, engine.stream, 0, means, np.zeros((ncols, ncols)))
    if method == "quadrature":
        if not quadrature:
            raise ValueError(f"no quadrature path for {subject()}")
        n = measure.n
        if n > 4:
            raise ValueError(f"tensor quadrature supports 1 <= n <= 4, got {n}")
        u, w = np.polynomial.laguerre.laggauss(engine.order)
        axis = measure.factor.r(u)
        pts = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
        wts = functools.reduce(np.multiply.outer, [w] * n).ravel()
        # each mean is the weights' dot with the column's contiguous row
        cols = np.asarray(_evaluate(columns, pts, ncols), dtype=float).reshape(ncols, -1)
        means = np.array([wts @ col for col in cols])
        return Pass(f"quadrature({engine.order})", engine.seed, engine.stream, wts.size,
                    means, np.zeros((ncols, ncols)))
    n, means, cov = run_chunked(measure, engine.samples, engine.seed, engine.stream,
                                columns, ncols, engine.workers)

    def redraw(k: int) -> tuple[int, np.ndarray, np.ndarray]:
        return run_chunked(measure, 2 * engine.samples, engine.seed,
                           recheck_stream(engine.stream, k), columns, ncols, engine.workers)

    return Pass(f"mc({engine.samples}, {engine.seed})", engine.seed, engine.stream, n, means, cov,
                redraw=redraw)


def tolerance(se: float) -> float:
    """How far below 0 a margin of standard error ``se`` may lie and hold:
    3 * se, or ``DET_TOL`` where se is 0 (every deterministic path)."""
    return 3.0 * se if se > 0 else DET_TOL


def within_tolerance(margin: float, se: float) -> bool:
    """The verdict rule of one pass: margin >= -tolerance(se), False on NaN."""
    return margin >= -tolerance(se)


def recheck_stream(stream: int, k: int) -> int:
    """Stream index of recheck pass ``k`` (1..3) of primary stream
    ``stream``: k * 2**62 + stream.  Primary streams lie in [0, 2**62)
    (:class:`Engine` enforces it), so no primary draw, of this run or of
    any other seed's, repeats a recheck draw."""
    return (k << _RECHECK_SHIFT) | (stream & ((1 << _RECHECK_SHIFT) - 1))


def certify(primary: Pass, margin: Callable[[Pass], tuple[float, float]]) -> tuple[str, str]:
    """(verdict, note) of the margin that ``margin`` reads off a pass as
    (margin, std_error): holds / violated / inconclusive, a Monte Carlo
    margin below tolerance read again off each :meth:`Pass.recheck`."""
    if within_tolerance(*margin(primary)):
        return "holds", ""
    if primary.deterministic:
        return "violated", "deterministic margin"
    outcomes = [not within_tolerance(*margin(primary.recheck(k)))
                for k in range(1, RECHECK_PASSES + 1)]
    if all(outcomes):
        return "violated", f"reproduced by {RECHECK_PASSES} recheck passes at doubled samples"
    if not any(outcomes):
        return "holds", "initial 3-sigma excursion not reproduced"
    return "inconclusive", "rechecks disagree"


def worst(verdicts) -> str:
    """Roll-up of several verdicts: violated > inconclusive > holds."""
    verdicts = set(verdicts)
    return next((v for v in ("violated", "inconclusive") if v in verdicts), "holds")


def record(value, std_error, reference, margin, margin_se, verdict, samples, method) -> dict:
    """The record columns every check shares.  ``tolerance`` is the one its
    verdict applied: :func:`tolerance` of the margin's error ``margin_se``;
    ``sampling_contract`` is the :data:`SAMPLING_CONTRACT` of the draws."""
    return {"value": value, "std_error": std_error, "reference": reference, "margin": margin,
            "tolerance": tolerance(margin_se), "verdict": verdict, "samples": samples,
            "method": method, "sampling_contract": SAMPLING_CONTRACT}


def measure_estimate(body, measure: MeasureKind, engine: Engine) -> Estimate:
    """measure(K): the closed form of the body's law, or the indicator
    mean with binomial standard error."""
    check_pairing(body, measure)

    def closed():
        forms = closed_forms(body, measure.factor)
        return None if forms is None else forms.curve

    p = estimate(engine, measure, body.base, 1, closed,
                 subject=lambda: f"the measure of {body.descriptor()!r}")
    m = float(p.means[0])
    se = 0.0 if p.deterministic else math.sqrt(max(m * (1.0 - m), 0.0) / p.samples)
    return Estimate(m, se, p.method, p.samples)


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
    engine = Engine(method="mc", samples=samples, seed=seed, stream=stream, workers=workers)
    return measure_estimate(body, measure, engine)


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

    The integrand takes an (m, n) array of coordinate radii, |z_k| or
    |x_k|, the draws of ``measure``; the integrands this serves depend on
    the points through their radii only.  It is evaluated only on rows
    inside the restriction; the pass aborts on any non-finite value with
    :class:`NonFiniteIntegrandError` naming its point.
    """
    if measure is None:
        raise ValueError("measure kind is required")
    if body is not None:
        check_pairing(body, measure)

    def columns(r: np.ndarray) -> np.ndarray:
        vals = np.zeros(r.shape[0])
        inside = np.ones(r.shape[0], dtype=bool) if body is None else body.base(r)
        if inside.any():
            vals[inside] = np.asarray(integrand(r[inside]), dtype=float)
        return vals

    engine = Engine(method="mc", samples=samples, seed=seed, stream=stream, workers=workers)
    p = estimate(engine, measure, columns, 1)
    return Estimate(float(p.means[0]), p.se({0: 1.0}), p.method, p.samples)


def tensor_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    n: int,
    order: int = 64,
    measure: str = "radial-mu",
) -> Estimate:
    """Deterministic product quadrature for phase-invariant integrands on
    the radius orthant [0, inf)^n, 1 <= n <= 4: the quadrature pass of
    :func:`estimate` over the integrand as its one column.

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
    if measure not in FACTORS:
        raise ValueError(f"unsupported quadrature measure {measure!r}")
    p = estimate(Engine(method="quadrature", order=order), MeasureKind(measure, n),
                 integrand, 1, quadrature=True)
    return Estimate(float(p.means[0]), 0.0, p.method, p.samples)
