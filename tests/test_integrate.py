import hashlib
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from sineq import integrate
from sineq.bodies import (
    annulus_body,
    box_body,
    cross_polytope,
    custom_reinhardt,
    cylinder_body,
    polydisc,
    product,
    reinhardt_lp_ball,
    strip_body,
    unconditional_lp_ball,
    validate_body,
)
from sineq.integrate import (
    CHUNK,
    DET_TOL,
    Engine,
    Estimate,
    Indicators,
    NonFiniteIntegrandError,
    PIECE,
    Pass,
    SAMPLING_CONTRACT,
    SUB,
    SampleMoments,
    SampleStream,
    Sublevels,
    certify,
    chunk_indices,
    draw_points,
    estimate,
    mc_integral,
    mc_measure,
    record,
    recheck_stream,
    run_chunked,
    tensor_quadrature,
    tolerance,
)
from sineq.measures import FACTORS, MeasureKind, complex_gaussian, exponential
from registry import REGISTRY, encode

SQRT_2LN2 = 1.1774100225154747
N = 200_000
SRC = str(Path(sys.modules["sineq"].__file__).parents[1])


def within_3se(estimate: Estimate, truth: float) -> bool:
    return abs(estimate.value - truth) <= 3 * estimate.std_error


def draw(measure: MeasureKind, stream: SampleStream, count: int) -> np.ndarray:
    """The first ``count`` points of ``stream``, block by block."""
    return np.concatenate([draw_points(measure, stream, block, take)
                           for block, take in chunk_indices(count)])


class TestSamplers:
    """Laws of the drawn coordinate radii |z_k| and |x_k|."""

    def test_complex_gaussian_second_moment(self):
        r = draw(complex_gaussian(2), SampleStream(101), N)
        w = (r * r).sum(axis=1)
        se = w.std(ddof=1) / math.sqrt(N)
        assert abs(w.mean() - 4.0) <= 3 * se

    def test_complex_gaussian_cylinder_probability(self):
        r = draw(complex_gaussian(1), SampleStream(102), N)[:, 0]
        p = (r <= SQRT_2LN2).mean()
        assert abs(p - 0.5) <= 3 * math.sqrt(0.25 / N)

    def test_exponential_l1_mean(self):
        x = draw(exponential(3), SampleStream(103), N)
        w = x.sum(axis=1)
        se = w.std(ddof=1) / math.sqrt(N)
        assert abs(w.mean() - 3.0) <= 3 * se

    def test_exponential_strip_probability(self):
        x = draw(exponential(1), SampleStream(104), N)
        p = (x[:, 0] <= math.log(2)).mean()
        assert abs(p - 0.5) <= 3 * math.sqrt(0.25 / N)

    def test_exponential_radii_are_unit_exponential(self):
        # the draw carries no sign: |x_1| is unit exponential, mean 1
        x = draw(exponential(2), SampleStream(105), N)
        se = x[:, 0].std(ddof=1) / math.sqrt(N)
        assert (x >= 0).all()
        assert abs(x[:, 0].mean() - 1.0) <= 3 * se

    def test_radial_mean_square(self):
        r = draw(MeasureKind("radial-mu", 2), SampleStream(106), N)
        w = (r * r).sum(axis=1)
        se = w.std(ddof=1) / math.sqrt(N)
        assert abs(w.mean() - 4.0) <= 3 * se

    def test_identical_stream_coordinates_are_bitwise_equal(self):
        a = draw_points(complex_gaussian(2), SampleStream(42, 0), 5, 1000)
        b = draw_points(complex_gaussian(2), SampleStream(42, 0), 5, 1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = draw_points(complex_gaussian(2), SampleStream(42, 0), 0, 100)
        b = draw_points(complex_gaussian(2), SampleStream(42, 1), 0, 100)
        assert not np.array_equal(a, b)

    def test_counter_advances_by_blocks(self):
        # 10 points take block 0 alone; the stream index defaults to 0
        assert chunk_indices(10) == [(0, 10)]
        first = draw_points(complex_gaussian(1), SampleStream(42), 0, 10)
        again = draw_points(complex_gaussian(1), SampleStream(42, 0), 0, 10)
        assert np.array_equal(first, again)

    def test_prefix_independence_of_total_count(self):
        # sample i depends only on (seed, stream, block), not on how many
        # samples were requested in total
        small = draw(exponential(2), SampleStream(9), CHUNK + 10)
        large = draw(exponential(2), SampleStream(9), 2 * CHUNK)
        assert np.array_equal(small, large[: CHUNK + 10])


DRAW_MEASURES = [complex_gaussian(2), exponential(3), MeasureKind("radial-mu", 2),
                 MeasureKind("exponential-1d", 2)]
TAKES = (1, 2, 999, CHUNK - 1, CHUNK)


def whole_block(measure: MeasureKind, stream: SampleStream, block: int) -> np.ndarray:
    """All CHUNK rows of a block, written out: one uniform per coordinate
    through the factor quantile."""
    return measure.factor.quantile_in_place(stream.generator(block).random((CHUNK, measure.n)))


class TestTakeRows:
    """Drawing only the rows taken gives the rows of a whole-block draw."""

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_draw_points_is_prefix_of_whole_block(self, measure):
        stream = SampleStream(77, 3)
        whole = whole_block(measure, stream, 5)
        for take in TAKES:
            assert np.array_equal(draw_points(measure, stream, 5, take), whole[:take])

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_sample_stream_draw_is_prefix_of_whole_blocks(self, measure):
        whole = np.concatenate([whole_block(measure, SampleStream(77, 3), b) for b in (0, 1)])
        for count in TAKES + (CHUNK + 999,):
            assert np.array_equal(draw(measure, SampleStream(77, 3), count), whole[:count])
            assert len(chunk_indices(count)) == -(-count // CHUNK)

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_draw_points_from_a_row_is_the_slice_of_the_block(self, measure):
        stream = SampleStream(77, 3)
        whole = whole_block(measure, stream, 5)
        for start, take in ((0, 10), (1, 7), (3, 999), (SUB, SUB), (CHUNK - 5, 5)):
            assert np.array_equal(draw_points(measure, stream, 5, take, start),
                                  whole[start:start + take])

    @pytest.mark.parametrize("tag", ["radial-mu", "exponential-1d"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_from_any_start_are_the_slice_of_the_block(self, tag, n):
        # a start skips start * n doubles, one 64-bit output each, at any
        # remainder of start * n by 4
        measure, stream = MeasureKind(tag, n), SampleStream(77, 3)
        whole = whole_block(measure, stream, 5)
        for start in (1, 2, 3, 5, SUB - 1):
            for take in (1, 7, SUB):
                assert np.array_equal(draw_points(measure, stream, 5, take, start),
                                      whole[start:start + take])


class TestKeys:
    """Block ``b`` of ``SampleStream(seed, stream)`` is seeded by the one
    integer seed | stream << 64 | b << 128: distinct keys give distinct,
    uncorrelated uniforms."""

    N = 100_000

    def uniforms(self, seed: int, stream: int, block: int) -> np.ndarray:
        return SampleStream(seed, stream).generator(block).random(self.N)

    @pytest.mark.parametrize("a, b", [((2**32, 7, 0), (0, 1 + 7 * 2**32, 0)),
                                      ((3, 2**32, 0), (3, 0, 1))],
                             ids=["seed-stream", "stream-block"])
    def test_keys_a_word_list_would_alias_draw_apart(self, a, b):
        # as lists or uint64 arrays both keys (seed, stream, block) of a pair
        # seed one state: SeedSequence splits them into 32-bit words and
        # drops trailing zero words
        for kind in (list, lambda key: np.array(key, dtype=np.uint64)):
            states = [np.random.SeedSequence(kind(key)).generate_state(4) for key in (a, b)]
            assert np.array_equal(*states)
        assert not np.array_equal(self.uniforms(*a)[:100], self.uniforms(*b)[:100])

    @pytest.mark.parametrize("a, b", [
        ((5, 0, 0), (5, 0, 1)),
        ((5, 0, 0), (6, 0, 0)),
        ((5, 0, 0), (5, 1, 0)),
        *[((5, 3, 0), (5, recheck_stream(3, k), 0)) for k in (1, 2, 3)],
    ], ids=["blocks", "seeds", "streams", "recheck-1", "recheck-2", "recheck-3"])
    def test_neighbouring_keys_draw_uncorrelated_uniforms(self, a, b):
        u, v = self.uniforms(*a), self.uniforms(*b)
        assert not np.array_equal(u, v)
        assert abs(np.corrcoef(u, v)[0, 1]) < 5 / math.sqrt(self.N)

    @pytest.mark.parametrize("key", [(0, 0, 0), (42, 0, 3), (2**64 - 1, 2**62 - 1, 7),
                                     (7, recheck_stream(0, 2), 0)], ids=str)
    def test_block_uniforms_pass_kolmogorov_smirnov(self, key):
        from scipy.stats import kstest

        assert kstest(self.uniforms(*key), "uniform").pvalue > 1e-3


class TestDrawBuffer:
    """``draw_points`` writes into an ``out`` array, and ``run_chunked``
    draws the sub-blocks of every block, however short, into one reused
    buffer."""

    @pytest.mark.parametrize("start, take", [(0, CHUNK + 5), (CHUNK, 1), (-2, 3), (0, 0)],
                             ids=["past-the-end", "start-at-end", "negative-start", "no-rows"])
    def test_rows_outside_the_block_raise(self, start, take):
        with pytest.raises(ValueError, match="are not rows of a"):
            draw_points(exponential(2), SampleStream(1), 0, take, start)

    @pytest.mark.parametrize("out", [
        np.empty((SUB, 2), dtype=np.float32),
        np.empty((SUB, 2), order="F"),
        np.empty((SUB, 4))[:, ::2],
        np.empty((SUB, 3)),
        np.empty((9, 2)),
        np.empty(2 * SUB),
    ], ids=["float32", "fortran", "strided", "columns", "rows", "flat"])
    def test_a_bad_out_raises(self, out):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            draw_points(exponential(2), SampleStream(1), 0, 10, 0, out)

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_out_is_a_view_with_the_bits_of_a_fresh_draw(self, measure):
        stream, buf = SampleStream(77, 3), np.full((SUB, measure.n), np.nan)
        for take in (1, SUB - 1, SUB):
            for start in (0, 3, SUB):
                pts = draw_points(measure, stream, 5, take, start, out=buf)
                assert pts.shape == (take, measure.n) and np.shares_memory(pts, buf)
                assert np.array_equal(pts, draw_points(measure, stream, 5, take, start))

    @staticmethod
    def _seen(samples: int, workers: int = 1) -> tuple[list[np.ndarray], tuple]:
        """The points each ``columns`` call got, and the run's result."""
        seen = []

        def columns(r: np.ndarray) -> np.ndarray:
            seen.append(r)
            return np.stack([r[:, 0], r.sum(axis=1)])

        return seen, run_chunked(exponential(3), samples, 13, 0, columns, 2, workers)

    def test_columns_see_one_buffer_across_sub_blocks_and_runs(self):
        # two full blocks of four sub-blocks and a last block of one
        seen, _ = self._seen(2 * CHUNK + 5000)
        assert [len(r) for r in seen] == [SUB] * 8 + [5000]
        assert all(np.shares_memory(r, seen[0]) for r in seen[:8])
        again, _ = self._seen(CHUNK)
        assert np.shares_memory(again[0], seen[0])

    def test_a_short_block_is_drawn_into_the_kept_buffer(self):
        # one rule for every block: two 1,000-row passes draw into the one
        # kept buffer, though the first pass's view is still held
        measure, seen, copies = exponential(3), [], []

        def columns(r: np.ndarray) -> np.ndarray:
            seen.append(r)
            copies.append(r.copy())
            return np.stack([r[:, 0], r.sum(axis=1)])

        for seed in (13, 14):
            run_chunked(measure, 1000, seed, 0, columns, 2)
        assert [len(r) for r in seen] == [1000, 1000]
        assert np.shares_memory(seen[0], seen[1])
        for seed, rows in zip((13, 14), copies):
            assert rows.tobytes() == draw_points(measure, SampleStream(seed), 0, 1000).tobytes()

    def test_threads_never_hold_the_same_buffer(self):
        # more threads than cores take and keep the one spare buffer at once,
        # each yielding between its draw and its columns: a thread drawing
        # into a buffer another one still reads would move that one's means;
        # short blocks alone leave exactly one spare behind
        integrate._spare.clear()

        def columns(r: np.ndarray) -> np.ndarray:
            time.sleep(0)
            return np.stack([r[:, 0], r.sum(axis=1)])

        def run(seed: int):
            return run_chunked(exponential(3), 3000, seed, 0, columns, 2)

        want = [run(seed) for seed in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run, range(40)))
        finally:
            sys.setswitchinterval(interval)
        for (n, means, cov), (n0, means0, cov0) in zip(got, want):
            assert n == n0 and means.tobytes() == means0.tobytes()
            assert cov.tobytes() == cov0.tobytes()
        assert len(integrate._spare) == 1

    def test_buffered_pass_has_the_bits_of_fresh_draws(self):
        samples = 2 * CHUNK + 5000
        r = draw(exponential(3), SampleStream(13), samples)
        acc = SampleMoments(2)
        for block, take in chunk_indices(samples):
            for start in range(0, take, SUB):
                rows = r[block * CHUNK + start:block * CHUNK + min(take, start + SUB)]
                acc.add_chunk(np.stack([rows[:, 0], rows.sum(axis=1)]))
        expected = acc.finalize()
        for workers in (1, 2):
            got = self._seen(samples, workers)[1]
            assert got[0] == expected[0]
            assert np.array_equal(got[1], expected[1]) and np.array_equal(got[2], expected[2])

    def test_a_nested_run_gets_its_own_buffer(self):
        outer, inner = [], []

        def columns(r: np.ndarray) -> np.ndarray:
            if not inner:
                run_chunked(exponential(3), CHUNK, 14, 0,
                            lambda q: inner.append(q) or q[:, :2].T.copy(), 2)
            outer.append(r)
            return np.stack([r[:, 0], r.sum(axis=1)])

        nested = run_chunked(exponential(3), CHUNK, 13, 0, columns, 2)
        assert not any(np.shares_memory(q, r) for q in inner for r in outer)
        plain = self._seen(CHUNK)[1]
        assert all(np.array_equal(a, b) for a, b in zip(nested, plain))


class TestSubBlocks:
    """A block is reduced ``SUB`` rows at a time without moving a mean."""

    BODIES = [polydisc([0.9, 1.4]), unconditional_lp_ball(3.0, 3, 1.4),
              annulus_body(1.0, 2.0)]

    @pytest.mark.parametrize("body", BODIES, ids=lambda b: b.kind)
    def test_workers_do_not_change_a_bit(self, body):
        # three blocks, the last one partial: at three workers each block
        # is reduced on its own thread
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        engine = Engine(method="mc", samples=2 * CHUNK + 5000, seed=31)
        one = body_statistics(body, None, DEFAULT_T_GRID, engine)
        for workers in (2, 3):
            many = body_statistics(body, None, DEFAULT_T_GRID, replace(engine, workers=workers))
            assert one.samples == many.samples == 2 * CHUNK + 5000
            assert np.array_equal(one.means, many.means) and np.array_equal(one.cov, many.cov)

    def test_many_threads_lose_no_part(self):
        # worker threads add their sub-blocks to one accumulator; a lost or
        # doubled part would change the count or a sum
        from sineq.verify import body_statistics

        body, samples = polydisc([0.9, 1.4]), 6 * CHUNK - 7
        one = body_statistics(body, None, (1.0, 2.0), Engine(method="mc", samples=samples))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = body_statistics(body, None, (1.0, 2.0),
                                   Engine(method="mc", samples=samples, workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert many.samples == samples
        assert np.array_equal(one.means, many.means) and np.array_equal(one.cov, many.cov)

    @pytest.mark.parametrize("body", BODIES, ids=lambda b: b.kind)
    def test_means_are_the_whole_block_column_sums(self, body):
        # an indicator mean is the whole pass's count, to the bit, however
        # the pass is cut; the weight's mean is the exact sum of its
        # pairwise sub-block sums
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        samples = CHUNK + 3 * SUB // 2
        stats = body_statistics(body, None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=samples, seed=32))
        r = draw(stats.measure, SampleStream(32), samples)
        counts = [np.count_nonzero(body.dilate(t).radial_member(r)) for t in stats.t_grid]
        assert np.array_equal(stats.means[:-1], np.array(counts, dtype=float) / samples)
        weight = stats.measure.weight(r) * body.radial_member(r)
        cuts = list(range(0, CHUNK, SUB)) + [CHUNK, CHUNK + SUB, samples]
        parts = [weight[a:b].sum() for a, b in zip(cuts, cuts[1:])]
        assert stats.means[-1] == math.fsum(parts) / samples


class TestColumnSums:
    """Contract 4: ``SampleMoments`` takes the columns of a sub-block as the
    rows of a C-contiguous (ncols, m) array (1-D for one column), sums them
    row by row, each row pairwise (``sum``), and multiplies each pair of
    rows i <= j by one ``np.dot`` per piece of ``PIECE`` samples, the pieces
    summed exactly; the partials of all sub-blocks are summed exactly
    (``math.fsum``)."""

    ROWS = [2, 3, 8191, 8192, 8193, SUB - 1, SUB]

    @staticmethod
    def adversarial(rng, k: int, m: int) -> np.ndarray:
        # samples scaled by 1e-8 .. 1e8 and a first sample of 1e16, which
        # swallows the low bits of every later one in a running sum
        c = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-8, 9, size=m)
        c[:, 0] = 1e16
        return c

    @staticmethod
    def moments(k: int, *parts: np.ndarray):
        acc = SampleMoments(k)
        for part in parts:
            acc.add_chunk(part)
        return acc.finalize()

    @staticmethod
    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return math.fsum(float(np.dot(a[lo:lo + PIECE], b[lo:lo + PIECE]))
                         for lo in range(0, len(a), PIECE))

    def oracle(self, k: int, *parts: np.ndarray):
        """(n, means, cov) by the contract-4 rule written out."""
        rows = [part.reshape(k, -1) for part in parts]
        n = sum(r.shape[1] for r in rows)
        sums = [math.fsum(float(r[i].sum()) for r in rows) for i in range(k)]
        prods = [[math.fsum(self.dot(r[min(i, j)], r[max(i, j)]) for r in rows)
                  for j in range(k)] for i in range(k)]
        mean = np.array(sums) / n
        return n, mean, (np.array(prods) - n * np.outer(mean, mean)) / (n - 1) / n

    @staticmethod
    def same_bits(got, expected) -> bool:
        return got[0] == expected[0] and all(
            a.tobytes() == b.tobytes() for a, b in zip(got[1:], expected[1:]))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_two_or_more_columns_are_summed_row_by_row(self, k):
        rng = np.random.default_rng(k)
        for m in self.ROWS:
            for c in (rng.random((k, m)), self.adversarial(rng, k, m)):
                got = self.moments(k, c)
                assert self.same_bits(got, self.oracle(k, c))
                pairwise = np.array([row.sum() for row in c])
                assert got[1].tobytes() == (pairwise / m).tobytes()

    def test_one_column_is_summed_pairwise(self):
        c = self.adversarial(np.random.default_rng(1), 1, SUB)[0]
        pairwise = c.sum()
        assert pairwise != np.cumsum(c)[-1]  # a running sum differs here
        got = self.moments(1, c)
        assert got[1].tobytes() == np.array([pairwise / SUB]).tobytes()
        assert self.same_bits(got, self.oracle(1, c))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_layout_does_not_change_a_bit(self, k):
        # a pass reduces a C-contiguous copy of columns handed over in
        # another layout
        layouts = [np.asfortranarray, lambda c: np.ascontiguousarray(c.T).T,
                   lambda c: np.repeat(c, 2, axis=1)[:, ::2]]

        def run(layout):
            def columns(r: np.ndarray) -> np.ndarray:
                c = np.stack([r[:, j % 3] * 10.0 ** (4 * j - 8) for j in range(k)])
                other = layout(c)
                assert np.array_equal(other, c)
                assert other is c or not other.flags.c_contiguous
                return other

            return run_chunked(exponential(3), CHUNK + 20_000, 5, 0, columns, k)

        plain = run(lambda c: c)
        for layout in layouts:
            assert self.same_bits(run(layout), plain)

    def test_indicator_moments_are_counts(self):
        # 0/1 columns sum and multiply to integers, exactly, so their means
        # and covariance are those of the counts whatever the cut
        rng = np.random.default_rng(7)
        m = 3 * SUB + 5
        u, v = rng.random(m), rng.random(m)
        marks = [u <= 0.2, u <= 0.5, v <= 0.9, (u > 0.3) & (v <= 0.6)]
        cols = np.array(marks, dtype=float)
        cuts = [0, 1, SUB, 2 * SUB + 17, m]
        n, means, cov = self.moments(4, *(cols[:, a:b] for a, b in zip(cuts, cuts[1:])))
        counts = np.array([np.count_nonzero(a) for a in marks], dtype=float)
        pairs = np.array([[np.count_nonzero(a & b) for b in marks] for a in marks], dtype=float)
        mean = counts / m
        assert n == m and means.tobytes() == mean.tobytes()
        assert cov.tobytes() == ((pairs - m * np.outer(mean, mean)) / (m - 1) / m).tobytes()

    def test_shuffled_parts_give_the_same_bits(self):
        # sub-blocks of several blocks, added in row order and shuffled
        rng = np.random.default_rng(8)
        c = self.adversarial(rng, 3, 2 * CHUNK + 5000)
        cuts = sorted({0, c.shape[1], *range(0, c.shape[1], SUB), *range(0, c.shape[1], CHUNK)})
        parts = [c[:, a:b].copy() for a, b in zip(cuts, cuts[1:])]
        ordered = self.moments(3, *parts)
        assert self.same_bits(ordered, self.oracle(3, *parts))
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(parts))
            assert self.same_bits(self.moments(3, *(parts[i] for i in order)), ordered)

    def test_blas_threads_do_not_change_a_bit(self):
        # a BLAS dot of more than 10,000 entries is split across the BLAS
        # threads; each piece of a product is shorter than that
        script = ("import hashlib, numpy as np; from sineq.integrate import SUB, SampleMoments; "
                  "acc = SampleMoments(3); "
                  "acc.add_chunk(np.random.default_rng(9).standard_normal((3, SUB + 5))); "
                  "print(hashlib.sha256(b''.join(a.tobytes() for a in acc.finalize()[1:]))"
                  ".hexdigest())")
        digests = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  check=True, env={**os.environ, "PYTHONPATH": SRC,
                                                   "OPENBLAS_NUM_THREADS": threads}
                                  ).stdout for threads in ("1", "2")}
        assert len(digests) == 1

    @pytest.mark.parametrize("ncols", [1, 3])
    def test_rows_of_samples_are_refused(self, ncols):
        # the contract-3 layout, one row per sample, names the layout wanted
        with pytest.raises(ValueError, match=rf"integrand returned shape \(1000, {ncols}\), "
                                             rf"expected \({ncols}, 1000\): one row per column"):
            run_chunked(exponential(2), 1000, 1, 0, lambda r: np.ones((len(r), ncols)), ncols)


class TestMcMeasure:
    def test_cylinder_half(self):
        est = mc_measure(cylinder_body(SQRT_2LN2, 2), complex_gaussian(2),
                         samples=N, seed=7)
        assert within_3se(est, 0.5)
        assert est.method == f"mc({N}, 7)"

    def test_polydisc_product_form(self):
        truth = (1 - math.exp(-1.125)) * (1 - math.exp(-2.0))
        est = mc_measure(polydisc([1.5, 2.0]), complex_gaussian(2), samples=N, seed=8)
        assert within_3se(est, truth)

    def test_empty_body_exact_zero(self):
        empty = custom_reinhardt(2, lambda r: np.zeros(r.shape[0], dtype=bool))
        est = mc_measure(empty, complex_gaussian(2), samples=50_000, seed=9)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_strip_exponential(self):
        est = mc_measure(strip_body(math.log(2), 2), exponential(2), samples=N, seed=10)
        assert within_3se(est, 0.5)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            mc_measure(polydisc([1.0]), complex_gaussian(1), samples=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mc_measure(polydisc([1.0]), complex_gaussian(2))

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mc_measure(strip_body(1.0, 2), complex_gaussian(2))


class TestMcIntegral:
    def test_disc_second_moment(self):
        est = mc_integral(
            lambda z: (z * z).sum(axis=1),
            body=cylinder_body(SQRT_2LN2, 1),
            measure=complex_gaussian(1),
            samples=N,
            seed=11,
        )
        assert within_3se(est, 0.3068528194400547)

    def test_unrestricted_second_moment(self):
        est = mc_integral(
            lambda z: (z * z).sum(axis=1),
            measure=complex_gaussian(3),
            samples=N,
            seed=12,
        )
        assert within_3se(est, 6.0)

    def test_strip_first_moment(self):
        est = mc_integral(
            lambda x: np.abs(x).sum(axis=1),
            body=strip_body(1.0, 2),
            measure=exponential(2),
            samples=N,
            seed=13,
        )
        assert within_3se(est, 0.896361676485673)

    def test_nonfinite_integrand_aborts(self):
        with pytest.raises(NonFiniteIntegrandError):
            mc_integral(
                lambda z: np.full(z.shape[0], np.nan),
                measure=complex_gaussian(1),
                samples=1000,
                seed=14,
            )

    def test_integrand_not_evaluated_outside_body(self):
        # singular outside the disc; restriction must shield it
        body = cylinder_body(1.0, 1)

        def integrand(z):
            r = z[:, 0]
            assert (r <= 1.0).all()
            return r

        est = mc_integral(integrand, body=body, measure=complex_gaussian(1),
                          samples=50_000, seed=15)
        assert est.value > 0


class TestReproducibility:
    def test_same_seed_bitwise_equal(self):
        a = mc_measure(polydisc([1.0, 1.0]), complex_gaussian(2), samples=N, seed=3)
        b = mc_measure(polydisc([1.0, 1.0]), complex_gaussian(2), samples=N, seed=3)
        assert a == b

    def test_invariant_to_worker_count(self):
        kwargs = dict(samples=300_000, seed=4)
        one = mc_measure(polydisc([1.0, 1.0]), complex_gaussian(2), workers=1, **kwargs)
        four = mc_measure(polydisc([1.0, 1.0]), complex_gaussian(2), workers=4, **kwargs)
        assert one.value == four.value
        assert one.std_error == four.std_error

    def test_integral_invariant_to_worker_count(self):
        args = (lambda z: (z * z).sum(axis=1),)
        kw = dict(measure=complex_gaussian(2), samples=300_000, seed=5)
        one = mc_integral(*args, workers=1, **kw)
        four = mc_integral(*args, workers=3, **kw)
        assert one.value == four.value


class TestTensorQuadrature:
    def test_normalization(self):
        est = tensor_quadrature(lambda r: np.ones(r.shape[0]), 2, order=16)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_radial_second_moment(self):
        est = tensor_quadrature(lambda r: r[:, 0] ** 2, 2, order=8)
        assert est.value == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_polynomial_exactness_in_u(self, k):
        # integrand (r^2/2)^k integrates to k! against the radial factor
        est = tensor_quadrature(lambda r: (r[:, 0] ** 2 / 2) ** k, 1, order=8)
        assert est.value == pytest.approx(math.factorial(k), rel=1e-10)

    def test_exponential_weight_variant(self):
        est = tensor_quadrature(lambda x: x.sum(axis=1), 3, order=8,
                                measure="exponential-1d")
        assert est.value == pytest.approx(3.0, abs=1e-10)

    def test_indicator_documented_degradation(self):
        # non-smooth integrand: measured error at order 64 is ~4.4e-2; any
        # 64-node rule is >= ~8e-3 in the worst case, so only a coarse
        # tolerance is honest here
        truth = (1 - math.exp(-0.5)) ** 2
        body = polydisc([1.0, 1.0])
        est = tensor_quadrature(
            lambda r: body.radial_member(r).astype(float), 2, order=64
        )
        assert est.value == pytest.approx(truth, abs=0.05)

    def test_indicator_error_shrinks_with_order(self):
        truth = (1 - math.exp(-0.5)) ** 2
        body = polydisc([1.0, 1.0])
        errs = [
            abs(
                tensor_quadrature(
                    lambda r: body.radial_member(r).astype(float), 2, order=o
                ).value
                - truth
            )
            for o in (16, 32, 64, 128)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_smooth_convergence_monotone(self):
        # analytic integrand: exp(-r^2) = exp(-2u); exact value 3^(-n)
        exact = 1.0 / 9.0
        errs = [
            abs(
                tensor_quadrature(
                    lambda r: np.exp(-(r * r).sum(axis=1)), 2, order=o
                ).value
                - exact
            )
            for o in (2, 4, 8, 16)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_guards(self):
        one = lambda r: np.ones(r.shape[0])
        with pytest.raises(ValueError):
            tensor_quadrature(one, 5, order=8)
        with pytest.raises(ValueError):
            tensor_quadrature(one, 2, order=1)
        with pytest.raises(ValueError):
            tensor_quadrature(one, 2, order=9999)

    def test_demo_values_to_the_bit(self):
        # the two values demos/01 prints, as reprs
        second = tensor_quadrature(lambda r: (r * r).sum(axis=1), 2, order=24)
        damped = tensor_quadrature(lambda r: np.exp(-(r * r).sum(axis=1)), 2, order=24)
        assert (repr(second.value), repr(damped.value)) == ("4.000000000000117",
                                                            "0.11111111111109062")
        assert (second.method, second.samples) == ("quadrature(24)", 24**2)

    def test_oracle_value_against_scipy(self):
        # smooth radial integrand cross-checked by adaptive quadrature
        oracle, _ = quad(lambda r: math.cos(r) * r * math.exp(-r * r / 2), 0, np.inf)
        est = tensor_quadrature(lambda r: np.cos(r[:, 0]), 1, order=48)
        assert est.value == pytest.approx(oracle, abs=1e-9)


class TestEngine:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Engine(workers=workers)

    @pytest.mark.parametrize("order", [0, 1, 181])
    def test_rejects_quadrature_order_outside_range(self, order):
        with pytest.raises(ValueError, match=r"quadrature order must be in \[2, 180\]"):
            Engine(order=order)


class TestEstimate:
    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, "mc(10, 1)")

    @pytest.mark.parametrize("tag, n", [("radial-mu", 2), ("exponential-1d", 3)])
    def test_quadrature_pass_evaluates_the_columns_once(self, tag, n):
        calls = []

        def columns(r):
            calls.append(r.shape[0])
            return np.stack([np.exp(-r[:, 0]), r.sum(axis=1), np.cos(r[:, -1])])

        p = estimate(Engine(method="quadrature", order=12), MeasureKind(tag, n), columns, 3,
                     quadrature=True)
        assert calls == [12**n]
        assert p.method == "quadrature(12)" and p.samples == 12**n
        # the tensor Gauss-Laguerre rule written out: laggauss nodes through
        # the factor's r, outer-product weights, and each mean the weights'
        # dot with the column's contiguous row, to the bit
        u, w = np.polynomial.laguerre.laggauss(12)
        axis = FACTORS[tag].r(u)
        pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
        wts = np.ones(1)
        for _ in range(n):
            wts = np.outer(wts, w).ravel()
        cols = columns(pts)
        assert p.means.tolist() == [float(wts @ cols[j]) for j in range(3)]

    def test_quadrature_pass_checks_the_columns(self):
        with pytest.raises(NonFiniteIntegrandError):
            estimate(Engine(method="quadrature", order=8), MeasureKind("radial-mu", 1),
                     lambda r: np.stack([r[:, 0], np.where(r[:, 0] > 1.0, np.inf, 0.0)]), 2,
                     quadrature=True)


class TestPass:
    @staticmethod
    def make_pass(method: str) -> Pass:
        return Pass(method, 1, 0, 10, np.zeros(1), np.zeros((1, 1)))

    def test_deterministic_flag(self):
        assert self.make_pass("closed-form").deterministic
        assert self.make_pass("quadrature(64)").deterministic
        assert not self.make_pass("mc(10, 1)").deterministic


class TestSamplingContract:
    """Draws pinned across commits: a change here is a sampling-contract
    change and has to be versioned (``SAMPLING_CONTRACT``) and recorded."""

    def test_pins_are_those_of_the_current_contract(self):
        # tests/data/repin.py re-pins them at a contract bump, with this
        # number, and checks each against its value under the contract before
        assert SAMPLING_CONTRACT == 5

    def test_pass_pinned(self):
        # the reduction is part of the contract: one pass over two blocks,
        # the first of them several sub-blocks
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        stats = body_statistics(polydisc([0.9, 1.4]), None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=150_000, seed=2026, stream=9))
        assert CHUNK // SUB > 1 and stats.cov.shape == (6, 6)
        digest = hashlib.sha256(stats.means.tobytes() + stats.cov.tobytes()).hexdigest()
        assert digest == "ff65903c9f5aa8c30dd6108b28fac21f24bdc2d74453be0bcc8362cfdcb720e3"

    def test_column_pass_pinned(self):
        # a validated custom shadow has no gauge, so its pass reduces the
        # column matrix: two blocks, five sub-blocks
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        body = validate_body(custom_reinhardt(
            2, lambda r: (r * r).sum(axis=1) + r[:, 0] * r[:, 1] <= 2.25), rng_seed=3)
        assert body.validated and body.gauge is None
        stats = body_statistics(body, None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=150_000, seed=2026, stream=9))
        assert stats.cov.shape == (6, 6)
        digest = hashlib.sha256(stats.means.tobytes() + stats.cov.tobytes()).hexdigest()
        assert digest == "e1579253e64d89a03128dc2a1a630343cd6e61fa3d6418822c40f68166f04b49"

    def test_moment_ratio_pass_pinned(self):
        # two columns over two blocks, five sub-blocks
        assert _fixture("test_moment_ratio_pass_pinned")[1] == (
            "2ed39d37b3b5d9556467c391ea33cb85453eff314905e5131d3a258f47fb5082")

    # (tag, n) -> sha256 of block 3, first 1000 rows, key (2026, 9); first row
    PINNED = {
        ("complex-gaussian", 2): (
            "26c0f3a80a65ca59b4a658edb9fc149819a521e2c474ac5a2a8d8c3a422336b4",
            [1.1459171993499873, 2.858069544018322],
        ),
        ("exponential", 3): (
            "5d81a3c39d61f5b21e5a8a2738924e0b746c7dfbb6e616f49bd424fedb651fe9",
            [0.6565631138830593, 4.084280759222549, 1.8049837888215288],
        ),
        ("radial-mu", 2): (
            "26c0f3a80a65ca59b4a658edb9fc149819a521e2c474ac5a2a8d8c3a422336b4",
            [1.1459171993499873, 2.858069544018322],
        ),
        ("exponential-1d", 3): (
            "5d81a3c39d61f5b21e5a8a2738924e0b746c7dfbb6e616f49bd424fedb651fe9",
            [0.6565631138830593, 4.084280759222549, 1.8049837888215288],
        ),
    }

    @pytest.mark.parametrize("tag, n", list(PINNED), ids=lambda v: str(v))
    def test_draw_points_pinned(self, tag, n):
        pts = draw_points(MeasureKind(tag, n), SampleStream(2026, 9), 3, 1000)
        digest, first = self.PINNED[(tag, n)]
        assert pts.shape == (1000, n)
        assert pts[0].tolist() == first
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    # (tag, n) -> first row of block 4, same key
    NEXT_BLOCK = {
        ("complex-gaussian", 2): [0.9374968887017032, 0.884143124020927],
        ("exponential", 3): [0.4394502081626868, 0.3908545318767422, 0.813116225304901],
        ("radial-mu", 2): [0.9374968887017032, 0.884143124020927],
    }

    @pytest.mark.parametrize("tag, n", list(NEXT_BLOCK), ids=str)
    def test_next_block_pinned(self, tag, n):
        pts = draw_points(MeasureKind(tag, n), SampleStream(2026, 9), 4, 1)
        assert pts[0].tolist() == self.NEXT_BLOCK[(tag, n)]

    @pytest.mark.parametrize("tag, factor_tag", [("complex-gaussian", "radial-mu"),
                                                 ("exponential", "exponential-1d")])
    @pytest.mark.parametrize("n", [1, 3])
    def test_measure_draws_its_factor_radii(self, tag, factor_tag, n):
        stream = SampleStream(2026, 9)
        for block, take in ((0, 1000), (4, CHUNK)):
            assert np.array_equal(draw_points(MeasureKind(tag, n), stream, block, take),
                                  draw_points(MeasureKind(factor_tag, n), stream, block, take))


def _fixture(name: str) -> tuple:
    """Fixture ``name`` that this file pins, produced by the registry
    (tests/data/registry.py, which re-pins it at a contract bump), as (its
    value, its pin)."""
    fx = REGISTRY[f"tests/test_integrate.py:{name}"]
    value = fx.produce(fx.seed)
    return value, encode(fx.how, value)


class TestKernelGoldens:
    """Records of the Monte Carlo paths that evaluate gauges, sections and
    norms across the coordinate axis, pinned by digest: a kernel rewrite
    that moves a bit of any of them shows here.  The bodies: a Reinhardt
    l_p ball ("lp"), a dilated product of a polydisc and a cylinder
    ("box-product"), a cross-polytope and an l_3 norm ball with no exact
    section, whose slices are found by bisection ("norm-ball")."""

    ENTROPY = {
        ("check_subadditivity", "lp"):
            "49473ece214112680f146881d37082b31812afce5baccc26e689ca9e13be5b6c",
        ("check_subadditivity", "box-product"):
            "7c80e714ceb56dc85db4874b4b3cfd9d77dd0804b29bd4d63db873625351ff16",
        ("check_subadditivity", "cross-polytope"):
            "b9838e21bd261e82bee391b2baad3e023d48baf00c1089661baff2b94184d9af",
        ("check_subadditivity", "norm-ball"):
            "8e7feaf9cf2350d4c231e798f644826c88760c80d367c003625321961db3ffb5",
        ("check_lemma_multidim", "lp"):
            "b1eccb1555751254b2e5600aa7da3549dec1b2566d577888c26830641b03841c",
        ("check_lemma_multidim", "box-product"):
            "4ef849b1cd3759003c69ea21ed2d380837f1430ed440f7264b8ba793ab53583f",
        ("check_lemma_multidim", "cross-polytope"):
            "c203c12ab7cffcf2a326ec33026689fcb8a5a4c63edbbcb283e445d1f38d281a",
        ("check_lemma_multidim", "norm-ball"):
            "22a81c68d19e905e4a23f6bad2b004e3d825098eda971b66be41f4ad32f7f9de",
    }
    MOMENTS = {
        ("linf", 2):
            "5889257bb957bc2ee56dd6c123e72f5c4b9050c3882efdef29544247dc3a02a3",
        ("linf", 3):
            "2ed5b5e2cf44c56992ebd5ec377f801619fd7ccbab6e30bfe3b55e00b3bd6b5c",
        ("linf", 4):
            "4f11ed96272bbbd040dde39f7c5b2513ee6c4dc824ccffd7f18c5d09547e2917",
        ("l1", 2):
            "41e76c2e65acf2ff90b007939c378916346bb36d005d636451d0d1641588a73f",
        ("l1", 3):
            "df1d129d3ff87eff9de5b362bc54996c9c5f7d1ed560e7e67a963b5be15c80c3",
        ("l1", 4):
            "4f467a8cb43a45d7e87b4755c72879ac98a97b4424d06c9a4dfd008d148fa78e",
        ("lp:3", 2):
            "aa3715379e16dafe2ab80cb4a397e66839f400ce6ab54b482eb17a3995a565eb",
        ("lp:3", 3):
            "c4ac715dc8f15407f78e6ce5671cc2342b1f9aa4a3a92d1a85470eef05334e5f",
        ("lp:3", 4):
            "d78d9475a479a19a6d98cc048d893bed0aa06e84ad4d6257eb4ae655ee8d2161",
        ("gauge", 2):
            "606640f27c1565c409c6fa66e93935435bc32a705d5d19210bd8bb40bed0ade3",
        ("gauge", 3):
            "4fb4dc6601974e010acca267649c91f45dc67c69cd62ccadc0b5e78129efe83f",
        ("gauge", 4):
            "a3ba24f668e8e97307156995447bb4d1c7a70276a946f4d5ec81d0382cc7d99f",
    }
    STATISTICS = {
        "lp":
            "b4ad5bbd62406915f2e875578e28f6dad5e57a50553b272c2bd0ffad8ff02304",
        "cross-polytope":
            "0672fd7323b243c8c21382f207ce7a26a9af1a434e20a267bc11ce8e480ef7e4",
    }

    @pytest.mark.parametrize("check, body", list(ENTROPY), ids=str)
    def test_entropy_records(self, check, body):
        record, pin = _fixture(f"ENTROPY[{check}, {body}]")
        assert record["method"].startswith("mc(")
        assert pin == self.ENTROPY[(check, body)]

    @pytest.mark.parametrize("norm, n", list(MOMENTS), ids=str)
    def test_moment_records(self, norm, n):
        assert _fixture(f"MOMENTS[{norm}, {n}]")[1] == self.MOMENTS[(norm, n)]

    @pytest.mark.parametrize("body", list(STATISTICS))
    def test_statistics(self, body):
        assert _fixture(f"STATISTICS[{body}]")[1] == self.STATISTICS[body]


def _contract_1_radii(measure: MeasureKind, seed: int, count: int) -> np.ndarray:
    """Coordinate radii by the contract-1 kernels, a law oracle for the
    direct draws: 2n standard normals reduced by ``hypot`` for the complex
    Gaussian, signed Laplace points reduced by ``abs`` for the exponential
    measure."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    n = measure.n
    if measure.tag == "complex-gaussian":
        z = gen.standard_normal((count, 2 * n))
        return np.hypot(z[:, 0::2], z[:, 1::2])
    v = gen.random((count, n))
    neg = v < 0.5
    mag = measure.factor.quantile(np.where(neg, 2.0 * v, 2.0 * v - 1.0))
    return np.abs(np.where(neg, -mag, mag))


class TestContractLaw:
    """Contract 2 changed the bits of the draws, not their law: the
    ``body_statistics`` means agree with the same columns over contract-1
    radii within a two-sample 4-sigma bound."""

    @pytest.mark.parametrize("body", [
        polydisc([0.8, 1.6]),
        reinhardt_lp_ball([1.0, 0.7, 1.3], 2.0, 1.5),
        reinhardt_lp_ball([1.0, 1.0], 1.0, 1.8),
        box_body([0.5, 1.5]),
        unconditional_lp_ball(3.0, 3, 1.4),
        cross_polytope(2.0, 3),
    ], ids=lambda b: f"{b.measure_tag}-{b.kind}")
    def test_statistics_match_the_contract_1_draws(self, body):
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        samples = 200_000
        stats = body_statistics(body, None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=samples, seed=61))
        r = _contract_1_radii(stats.measure, 62, samples)
        cols = np.stack([body.dilate(t).radial_member(r).astype(float) for t in stats.t_grid]
                        + [stats.measure.weight(r) * body.radial_member(r)], axis=1)
        old_mean = cols.mean(axis=0)
        old_var = cols.var(axis=0, ddof=1) / samples
        bound = 4.0 * np.sqrt(np.diag(stats.cov) + old_var)
        assert (np.abs(stats.means - old_mean) <= bound).all(), (stats.means, old_mean, bound)


class TestCertify:
    """The verdict protocol on hand-made passes: margin = means[0], its
    error sqrt(cov[0, 0]); ``redraw`` returns the rechecks' chosen moments."""

    @staticmethod
    def make_pass(method: str, margin: float, se: float = 0.0, redraw=None) -> Pass:
        return Pass(method, 1, 0, 100, np.array([margin]), np.array([[se**2]]), redraw=redraw)

    @staticmethod
    def margin(p: Pass) -> tuple[float, float]:
        return float(p.means[0]), math.sqrt(float(p.cov[0, 0]))

    def test_negative_deterministic_margin_is_violated_without_rechecks(self):
        def no_recheck(k):
            raise AssertionError("a deterministic margin must not be rechecked")

        primary = self.make_pass("closed-form", -1e-6, redraw=no_recheck)
        assert certify(primary, self.margin) == ("violated", "deterministic margin")
        within = self.make_pass("closed-form", -0.5 * DET_TOL, redraw=no_recheck)
        assert certify(within, self.margin) == ("holds", "")

    def test_disagreeing_rechecks_are_inconclusive(self):
        # recheck k's (margin, se): reproduces, holds, reproduces
        redrawn = {1: (-0.5, 0.1), 2: (0.1, 0.1), 3: (-0.5, 0.1)}
        calls = []

        def redraw(k):
            calls.append(k)
            margin, se = redrawn[k]
            return 200, np.array([margin]), np.array([[se**2]])

        primary = self.make_pass("mc(100, 1)", -0.4, 0.1, redraw)  # -4 sigma
        assert certify(primary, self.margin) == ("inconclusive", "rechecks disagree")
        assert calls == [1, 2, 3]

    def test_recheck_is_a_copy_without_rechecks(self):
        primary = self.make_pass("mc(100, 1)", -0.4, 0.1,
                                 lambda k: (200, np.array([0.1 * k]), np.array([[0.01]])))
        again = primary.recheck(2)
        assert (again.method, again.seed, again.stream, again.samples) == (
            "mc(200, 1)", 1, 2 << 62, 200)
        assert self.margin(again) == (0.2, 0.1)
        assert again.redraw is None and primary.means.tolist() == [-0.4]


class TestRecord:
    def test_tolerance_column_is_the_margins(self):
        rec = record(0.5, 0.001, 0.4, 0.1, 0.006, "holds", 1000, "mc(1000, 1)")
        assert rec == {"value": 0.5, "std_error": 0.001, "reference": 0.4, "margin": 0.1,
                       "tolerance": tolerance(0.006), "verdict": "holds", "samples": 1000,
                       "method": "mc(1000, 1)", "sampling_contract": SAMPLING_CONTRACT}
        assert record(1.0, 0.0, 1.0, 0.0, 0.0, "holds", 0, "closed-form")["tolerance"] == DET_TOL


@pytest.mark.parametrize("call, match", [
    (lambda: Engine(method="bogus"), "unknown engine method 'bogus'"),
    (lambda: mc_integral(lambda r: r[:, 0], samples=10), "measure kind is required"),
    (lambda: tensor_quadrature(lambda r: r[:, 0], 1, 8, "gaussian"),
     "unsupported quadrature measure"),
    (lambda: tensor_quadrature(lambda r: r, 2, 8),
     r"integrand returned shape \(64, 2\), expected \(1, 64\): one row per column"),
    (lambda: Engine(seed=-1), r"seed must be in \[0, 2\*\*64\), got -1"),
    (lambda: Engine(seed=2**64), r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
    (lambda: Engine(stream=-1), r"^engine stream -1 outside \[0, 2\*\*62\): higher streams "
                                r"are reserved for rechecks$"),
    (lambda: Engine(stream=2**62), r"^engine stream 4611686018427387904 outside \[0, 2\*\*62\)"),
    # a direct caller of the draw gets the same refusal, not an aliased seed
    (lambda: run_chunked(complex_gaussian(1), 1000, -1, 0, lambda r: r[:, :1], 1),
     r"^seed must be in \[0, 2\*\*64\), got -1$"),
    (lambda: SampleStream(2**64), r"^seed must be in \[0, 2\*\*64\)"),
    (lambda: SampleStream(0, 2**64), r"^stream must be in \[0, 2\*\*64\)"),
], ids=["engine-method", "integral-without-measure", "quadrature-measure",
        "quadrature-integrand-shape", "negative-seed", "seed-past-64-bits",
        "negative-stream", "recheck-stream", "run-chunked-negative-seed",
        "sample-stream-seed-past-64-bits", "sample-stream-stream-past-64-bits"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestOneGeneratorPerBlock:
    """``run_chunked`` makes each block's generator once and draws its
    sub-blocks from it in order, with the bits of one whole-block draw and
    of ``draw_points`` from each start."""

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    @pytest.mark.parametrize("take", [CHUNK, CHUNK - 7, SUB + 1])
    def test_sub_blocks_of_one_generator_are_the_block(self, measure, take):
        stream = SampleStream(77, 3)
        gen = stream.generator(5)
        starts = range(0, take, SUB)
        parts = [draw_points(measure, stream, 5, min(SUB, take - s), s, gen=gen) for s in starts]
        assert np.array_equal(np.concatenate(parts), whole_block(measure, stream, 5)[:take])
        for start, part in zip(starts, parts):
            assert np.array_equal(part, draw_points(measure, stream, 5, len(part), start))

    def test_each_block_is_seeded_once(self, monkeypatch):
        seeded = []
        generator = SampleStream.generator

        def counted(self, block):
            seeded.append(block)
            return generator(self, block)

        monkeypatch.setattr(SampleStream, "generator", counted)
        run_chunked(exponential(3), 2 * CHUNK + 5000, 13, 0, lambda r: r[:, :2].T.copy(), 2)
        assert seeded == [0, 1, 2]


class TestReductionFastPaths:
    """A one-column bool result is counted and one partial is finalized
    without ``math.fsum``, with the bits of the float 0/1 column and of the
    ``fsum`` of each partial."""

    @staticmethod
    def same_bits(got, want) -> bool:
        return got[0] == want[0] and all(a.tobytes() == b.tobytes()
                                         for a, b in zip(got[1:], want[1:]))

    @pytest.mark.parametrize("samples", [2000, SUB + 5, 2 * CHUNK + 5000],
                             ids=["one-sub-block", "two-sub-blocks", "three-blocks"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bool_column_is_the_float_column(self, samples, workers):
        body = polydisc([1.0, 1.5])
        counted = run_chunked(complex_gaussian(2), samples, 9, 0, body.base, 1, workers)
        floats = run_chunked(complex_gaussian(2), samples, 9, 0,
                             lambda r: body.base(r).astype(float), 1, workers)
        assert self.same_bits(counted, floats)

    @pytest.mark.parametrize("fill", [False, True, None], ids=["none-in", "all-in", "mixed"])
    def test_counted_partial_is_the_float_partial(self, fill):
        m = SUB
        col = (np.random.default_rng(2).random(m) < 0.3) if fill is None else np.full(m, fill)
        counted, floats = SampleMoments(1), SampleMoments(1)
        counted.add_chunk(col)
        floats.add_chunk(col.astype(float))
        assert self.same_bits(counted.finalize(), floats.finalize())

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_partial_is_its_fsum(self, k):
        rng = np.random.default_rng(k)
        c = TestColumnSums.adversarial(rng, k, 5000)
        c[0] = -0.0
        acc = SampleMoments(k)
        acc.add_chunk(c if k > 1 else c[0])
        got = acc.finalize()
        assert self.same_bits(got, TestColumnSums().oracle(k, c))
        assert not np.signbit(got[1][0]) and not np.signbit(got[2][0]).any()

    def test_one_partial_of_negative_zeros_is_read_as_fsum_reads_it(self):
        # numpy sums start at 0.0, so no column add_chunk takes gives a sum
        # of -0.0; the partial is written in as a reduction could hand it
        acc = SampleMoments(2)
        acc._parts.append((4, np.array([-0.0, 2.0]), np.array([[-0.0, -0.0], [-0.0, 2.0]])))
        n, mean, cov = acc.finalize()
        assert n == 4 and mean.tolist() == [0.0, 0.5]  # fsum([-0.0]) is 0.0
        assert not np.signbit(mean).any() and not np.signbit(cov).any()

    def test_one_sublevels_partial_is_its_fsum(self):
        rng = np.random.default_rng(5)
        rho = rng.exponential(size=4000)
        part = Sublevels(rho, (0.5, 1.0, 2.0), rng.random(4000), 1)
        acc = SampleMoments(4)
        acc.add_chunk(part)
        n, sums, prods = part.moments()
        mean = np.array([math.fsum([s]) for s in sums.tolist()]) / n
        prods = np.reshape([math.fsum([p]) for p in prods.ravel().tolist()], (4, 4))
        want = n, mean, (prods - n * np.outer(mean, mean)) / (n - 1) / n
        assert self.same_bits(acc.finalize(), want)


class TestIndicators:
    """The predicate columns of a body without a gauge, handed over as
    bool masks and the weight, reduce to the bits of the same columns as a
    float (ncols, m) array: the reduction of contracts 4 and 5."""

    GRID = (0.5, 1.0, 1.5, 3.0)
    BODIES = {
        "annulus": annulus_body(1.0, 2.0),
        # members in bands of r_1 + r_2, so no two dilates are nested
        "bands": custom_reinhardt(2, lambda r: r.sum(axis=1) % 1.0 < 0.5),
        "product": product(custom_reinhardt(1, lambda r: r[:, 0] % 1.0 < 0.5),
                           polydisc([1.2])),
    }

    @classmethod
    def columns(cls, body, floats: bool):
        measure, at = complex_gaussian(body.dim), cls.GRID.index(1.0)

        def as_floats(r):
            out = np.empty((len(cls.GRID) + 1, r.shape[0]))
            for i, t in enumerate(cls.GRID):
                out[i] = body.base(r / t)
            np.multiply(measure.weight(r), out[at], out=out[-1])
            return out

        def as_masks(r):
            return Indicators([body.base(r / t) for t in cls.GRID], measure.weight(r), at)

        return measure, as_floats if floats else as_masks

    @pytest.mark.parametrize("take", [1, SUB - 1, SUB + 1, CHUNK + 1])
    @pytest.mark.parametrize("name", list(BODIES))
    def test_a_partial_is_the_float_partial(self, name, take):
        partials = []
        for floats in (True, False):
            measure, columns = self.columns(self.BODIES[name], floats)
            r = draw_points(measure, SampleStream(3), 0, min(take, CHUNK))
            if take > CHUNK:
                r = np.concatenate([r, draw_points(measure, SampleStream(3), 1, take - CHUNK)])
            acc = SampleMoments(len(self.GRID) + 1)
            acc.add_chunk(integrate._evaluate(columns, r, len(self.GRID) + 1))
            partials.append(acc._parts[0])
        (n, sums, prods), (n2, sums2, prods2) = partials
        assert n == n2 == take
        assert sums.tobytes() == sums2.tobytes() and prods.tobytes() == prods2.tobytes()
        assert 0 < sums[0] < take or take == 1  # not every sample in or out

    @pytest.mark.parametrize("samples", [SUB - 1, SUB + 1, CHUNK + 1])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(BODIES))
    def test_a_pass_is_the_float_pass(self, name, workers, samples):
        passes = []
        for floats in (True, False):
            measure, columns = self.columns(self.BODIES[name], floats)
            passes.append(run_chunked(measure, samples, 5, 0, columns, len(self.GRID) + 1,
                                      workers))
        (n, means, cov), (n2, means2, cov2) = passes
        assert n == n2 == samples
        assert means.tobytes() == means2.tobytes() and cov.tobytes() == cov2.tobytes()

    @pytest.mark.parametrize("answer, error, match", [
        (np.nan, NonFiniteIntegrandError, "predicate returned nan at"),
        (np.inf, NonFiniteIntegrandError, "predicate returned inf at"),
        (0.5, ValueError, "predicate returned 0.5 at"),
        (2, ValueError, "predicate returned 2 at"),
    ], ids=["nan", "inf", "half", "two"])
    def test_an_answer_not_0_or_1_is_refused(self, answer, error, match):
        # the first 10 points are members, the 11th answers ``answer``
        def shadow(r):
            out = np.zeros(len(r), dtype=type(answer))
            out[:10], out[10] = 1, answer
            return out

        measure, columns = self.columns(custom_reinhardt(2, shadow), False)
        with pytest.raises(error, match=match) as caught:
            run_chunked(measure, 1000, 1, 0, columns, len(self.GRID) + 1)
        point = draw_points(measure, SampleStream(1), 0, 11)[10].tolist()
        assert str(point) in str(caught.value)
