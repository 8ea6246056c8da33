import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from sineq.bodies import (
    annulus_body,
    box_body,
    cross_polytope,
    custom_reinhardt,
    cylinder_body,
    norm_ball,
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
    NonFiniteIntegrandError,
    Pass,
    SAMPLING_CONTRACT,
    SUB,
    SampleMoments,
    SampleStream,
    certify,
    chunk_indices,
    draw_points,
    estimate,
    mc_integral,
    mc_measure,
    record,
    run_chunked,
    tensor_quadrature,
    tolerance,
)
from sineq.measures import FACTORS, MeasureKind, complex_gaussian, exponential

SQRT_2LN2 = 1.1774100225154747
N = 200_000


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


class TestDrawBuffer:
    """``draw_points`` writes into an ``out`` array, and ``run_chunked``
    draws the sub-blocks of a long block into one reused buffer."""

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
            return np.stack([r[:, 0], r.sum(axis=1)], axis=1)

        return seen, run_chunked(exponential(3), samples, 13, 0, columns, 2, workers)

    def test_columns_see_one_buffer_across_sub_blocks_and_runs(self):
        # two full blocks of four sub-blocks and a last block of one
        seen, _ = self._seen(2 * CHUNK + 5000)
        assert [len(r) for r in seen] == [SUB] * 8 + [5000]
        assert all(np.shares_memory(r, seen[0]) for r in seen[:8])
        again, _ = self._seen(CHUNK)
        assert np.shares_memory(again[0], seen[0])

    def test_buffered_pass_has_the_bits_of_fresh_draws(self):
        samples = 2 * CHUNK + 5000
        r = draw(exponential(3), SampleStream(13), samples)
        acc = SampleMoments(2)
        for block, take in chunk_indices(samples):
            for start in range(0, take, SUB):
                rows = r[block * CHUNK + start:block * CHUNK + min(take, start + SUB)]
                acc.add_chunk(block, np.stack([rows[:, 0], rows.sum(axis=1)], axis=1))
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
                            lambda q: inner.append(q) or q[:, :2].copy(), 2)
            outer.append(r)
            return np.stack([r[:, 0], r.sum(axis=1)], axis=1)

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
        # three blocks, the last one partial
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        engine = Engine(method="mc", samples=2 * CHUNK + 5000, seed=31)
        one = body_statistics(body, None, DEFAULT_T_GRID, engine)
        two = body_statistics(body, None, DEFAULT_T_GRID, replace(engine, workers=2))
        assert one.samples == two.samples == 2 * CHUNK + 5000
        assert np.array_equal(one.means, two.means) and np.array_equal(one.cov, two.cov)

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
        # the column sums of each whole block in numpy's order, summed
        # exactly across blocks, as before sub-blocks
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        samples = CHUNK + 3 * SUB // 2
        stats = body_statistics(body, None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=samples, seed=32))
        r = draw(stats.measure, SampleStream(32), samples)
        cols = np.stack([body.dilate(t).radial_member(r).astype(float) for t in stats.t_grid]
                        + [stats.measure.weight(r) * body.radial_member(r)], axis=1)
        blocks = [cols[:CHUNK].sum(axis=0), cols[CHUNK:].sum(axis=0)]
        sums = [math.fsum(b[j] for b in blocks) for j in range(cols.shape[1])]
        assert np.array_equal(stats.means, np.array(sums) / samples)


class TestColumnSums:
    """``SampleMoments`` sums two or more columns of a sub-block row by row
    (``einsum``) and a single column pairwise (``sum``), whatever the
    memory layout of the array it is handed."""

    ROWS = [1, 2, 3, 8191, 8192, 8193, SUB - 1, SUB]

    @staticmethod
    def rowwise(c: np.ndarray) -> np.ndarray:
        acc = c[0].copy()
        for row in c[1:]:
            acc += row
        return acc

    @staticmethod
    def adversarial(rng, m: int, k: int) -> np.ndarray:
        # rows scaled by 1e-8 .. 1e8 and a first row of 1e16, which swallows
        # the low bits of every later row in a running sum
        c = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))
        c[0] = 1e16
        return c

    @staticmethod
    def moments(k: int, *parts: np.ndarray):
        acc = SampleMoments(k)
        for part in parts:
            acc.add_chunk(0, part)
        return acc.finalize()

    @pytest.mark.parametrize("k", range(2, 9))
    def test_two_or_more_columns_are_summed_row_by_row(self, k):
        rng = np.random.default_rng(k)
        for m in self.ROWS:
            for c in (rng.random((m, k)), self.adversarial(rng, m, k)):
                rows = self.rowwise(c)
                assert np.einsum("ij->j", c).tobytes() == rows.tobytes()
                assert c.sum(axis=0).tobytes() == rows.tobytes()
                if m > 1:
                    means = self.moments(k, c.copy())[1]
                    assert means.tobytes() == (rows / m).tobytes()

    def test_one_column_is_summed_pairwise(self):
        c = self.adversarial(np.random.default_rng(1), SUB, 1)
        pairwise = c.sum(axis=0)
        assert pairwise.tobytes() != self.rowwise(c).tobytes()  # the two rules differ here
        assert self.moments(1, c.copy())[1].tobytes() == (pairwise / SUB).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_layout_does_not_change_a_bit(self, k):
        c = self.adversarial(np.random.default_rng(10 + k), 20_000, k)
        wide = np.empty((c.shape[0], 2 * k))
        wide[:, ::2] = c
        n, means, cov = self.moments(k, c[:12_000].copy(), c[12_000:].copy())
        for other in (np.asfortranarray(c), np.ascontiguousarray(c.T).T, wide[:, ::2]):
            assert not other.flags.c_contiguous and np.array_equal(other, c)
            got = self.moments(k, other[:12_000], other[12_000:])
            assert got[0] == n
            assert got[1].tobytes() == means.tobytes() and got[2].tobytes() == cov.tobytes()


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
            return np.stack([np.exp(-r[:, 0]), r.sum(axis=1), np.cos(r[:, -1])], axis=1)

        p = estimate(Engine(method="quadrature", order=12), MeasureKind(tag, n), columns, 3,
                     quadrature=True)
        assert calls == [12**n]
        assert p.method == "quadrature(12)" and p.samples == 12**n
        # the tensor Gauss-Laguerre rule written out: laggauss nodes through
        # the factor's r, outer-product weights, and each mean the weights'
        # dot with the contiguous column, to the bit
        u, w = np.polynomial.laguerre.laggauss(12)
        axis = FACTORS[tag].r(u)
        pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
        wts = np.ones(1)
        for _ in range(n):
            wts = np.outer(wts, w).ravel()
        cols = columns(pts)
        assert p.means.tolist() == [float(wts @ np.ascontiguousarray(cols[:, j]))
                                    for j in range(3)]

    def test_quadrature_pass_checks_the_columns(self):
        with pytest.raises(NonFiniteIntegrandError):
            estimate(Engine(method="quadrature", order=8), MeasureKind("radial-mu", 1),
                     lambda r: np.stack([r[:, 0], np.where(r[:, 0] > 1.0, np.inf, 0.0)], axis=1), 2,
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

    def test_pins_are_those_of_contract_3(self):
        assert SAMPLING_CONTRACT == 3

    def test_pass_pinned(self):
        # the reduction is part of the contract: one pass over two blocks,
        # the first of them several sub-blocks
        from sineq.verify import DEFAULT_T_GRID, body_statistics

        stats = body_statistics(polydisc([0.9, 1.4]), None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=150_000, seed=2026, stream=9))
        assert CHUNK // SUB > 1 and stats.cov.shape == (6, 6)
        digest = hashlib.sha256(stats.means.tobytes() + stats.cov.tobytes()).hexdigest()
        assert digest == "e5ca7d8f67796d9e8340cacab8a33e514654bc3dbd751c5e94fd9360dafbee6e"

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
        assert digest == "7c1b2dc31e0193ce538599b4270af29caded9dce33d1a34c21cb60a1eaa60e8b"

    def test_moment_ratio_pass_pinned(self):
        # two columns over two blocks, five sub-blocks
        record = _golden_moments("linf", 3, samples=150_000)
        assert _record_digest(record) == (
            "2623a203adb599b194fd992b2143e9d20c0fa05a6375f0c1aa481dee122bb6bf")

    # (tag, n) -> sha256 of block 3, first 1000 rows, key (2026, 9); first row
    PINNED = {
        ("complex-gaussian", 2): (
            "908efe07283d3c318dae77166e483df90c5a7535f3610441ed128254c554a562",
            [1.536162616589241, 1.712726937494207],
        ),
        ("exponential", 3): (
            "76fe75004454f32ff9735f8f669edc134831fe015e45486cbf3bc21725240d89",
            [1.1798977923031517, 1.4667167812091426, 0.3194386973835255],
        ),
        ("radial-mu", 2): (
            "908efe07283d3c318dae77166e483df90c5a7535f3610441ed128254c554a562",
            [1.536162616589241, 1.712726937494207],
        ),
        ("exponential-1d", 3): (
            "76fe75004454f32ff9735f8f669edc134831fe015e45486cbf3bc21725240d89",
            [1.1798977923031517, 1.4667167812091426, 0.3194386973835255],
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
        ("complex-gaussian", 2): [1.289239797936737, 0.5062548547758754],
        ("exponential", 3): [0.8310696282919792, 0.12814698899207133, 1.2299432121413505],
        ("radial-mu", 2): [1.289239797936737, 0.5062548547758754],
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


def _record_digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _golden_entropy(check, body, tag):
    from sineq.entropy import complement_indicator

    rep = check(complement_indicator(body), body.dim, tag,
                Engine(method="mc", samples=70_000, seed=23))
    return rep.to_record()


def _golden_moments(norm, n, samples=70_000):
    from sineq import moments

    make = {"linf": moments.linf_norm, "l1": moments.l1_norm,
            "lp:3": lambda: moments.lp_norm(3.0),
            "gauge": lambda: unconditional_lp_ball(2.5, n, 1.3, [0.8, 1.0, 1.2, 1.1][:n])}
    return moments.moment_ratio(make[norm](), 2.5, 0.75, n,
                                Engine(method="mc", samples=samples, seed=29)).to_record()


def _golden_statistics(body):
    from sineq.verify import DEFAULT_T_GRID, body_statistics

    stats = body_statistics(body, None, DEFAULT_T_GRID,
                            Engine(method="mc", samples=70_000, seed=31))
    return [stats.means.tolist(), stats.cov.tolist()]


class TestKernelGoldens:
    """Records of the Monte Carlo paths that evaluate gauges, sections and
    norms across the coordinate axis, pinned by digest: a kernel rewrite
    that moves a bit of any of them shows here."""

    BODIES = {
        "lp": (reinhardt_lp_ball([0.9, 1.0, 1.1], 2.0, 1.9), "radial-mu", "complex-gaussian"),
        "box-product": (product(polydisc([0.8]), cylinder_body(1.2, 2)).dilate(1.3),
                        "radial-mu", "complex-gaussian"),
        "cross-polytope": (cross_polytope(3.2, 4), "exponential-1d", "exponential"),
        # no exact section: slices by bisection
        "norm-ball": (norm_ball(lambda x: (np.abs(x) ** 3).sum(axis=1) ** (1 / 3), 2.0, 3),
                      "exponential-1d", "exponential"),
    }
    ENTROPY = {
        ("check_subadditivity", "lp"):
            "5bada343a4dae501f460d4bf361f3f40bde9ad3cee008b7600db2907ed197260",
        ("check_subadditivity", "box-product"):
            "9b2905e744b7abb54c56ad89e9c738b6bbebcbb616d9664b8ae99e4a705e0396",
        ("check_subadditivity", "cross-polytope"):
            "da044bf8a617f55d5816e120c13fea96e5e6c0ebfd5b071cd00908f769088b8f",
        ("check_subadditivity", "norm-ball"):
            "8b3d5415f25e89cce24c29108d072a14fd348f5202f489d4b57fda170594e4a7",
        ("check_lemma_multidim", "lp"):
            "fb57d37bb15ca5127081149333652e326d561a67b33fa11f74de5a7c35894174",
        ("check_lemma_multidim", "box-product"):
            "ff4b5354229abc9e59407167cc53e802410f124c4c8c4040abf1190c9df7a596",
        ("check_lemma_multidim", "cross-polytope"):
            "16a9f8ee6b98335e335983fa0a6e6316b6a5edc15f6cf3f52fbde5d73379e4e3",
        ("check_lemma_multidim", "norm-ball"):
            "554943756cc201e2031588d21fecac7cf7ffe2d4b51aa9e0dd21e8d5ada99de0",
    }
    MOMENTS = {
        ("linf", 2):
            "e2ea9138d97c840eba1baf71d7086e9913417d81ee9fda23dc88a85c9f58718b",
        ("linf", 3):
            "5d1daa921cadefbcb73347a2f4a70458f0f60d1316acca1afb74af3ee90729d4",
        ("linf", 4):
            "fa5c172a907d10236ef196ea767eb4f98c45640e4c577101811cd7ec328fcb6a",
        ("l1", 2):
            "2c916804c4f46d3f09d09056cfb2b1a7e7432e9ebaf6ccf3d37193e76b783b6b",
        ("l1", 3):
            "4027ad3a1c24e8a7a510d2b84f470bd3f9e4bc15874f59d43773d3f433bba709",
        ("l1", 4):
            "b4c6bc02b93b5396de9ab62558bcf3d73db688afc21d8c1b566317bcb8cda2e9",
        ("lp:3", 2):
            "8430a93ddaef80a467049ee740da786ca117985b3db251ecdbe8ae2345198d2c",
        ("lp:3", 3):
            "3de5068951a2977996af696a18afff29164fa259554f93cc44b35e1a331f7cc5",
        ("lp:3", 4):
            "624383e6e6d273cc6cbf03f49d9c28e005d66d40ca1b13c721cfa6c2b6144f34",
        ("gauge", 2):
            "b0fb4a793e26f9764d2aeba84ea0d3bea94e781922b81ab17d999e6a7967f38a",
        ("gauge", 3):
            "f857312a0e78c09d85a48c780c66a23bb556137eacaea416ea04e1535ac68622",
        ("gauge", 4):
            "403f318ee0aac2141d59488f65e5ce7a91bb58d328bf87c72f499bcf6b257700",
    }
    STATISTICS = {
        "lp":
            "b3a415231c11769aaa4291eb4277896a133cadac5e0b56e559264a9485aebc13",
        "cross-polytope":
            "e2904a74515b0ce0e96ceda94a81b02bb0aab4e88d07378739996d4146b11d8f",
    }

    @pytest.mark.parametrize("check, body", list(ENTROPY), ids=str)
    def test_entropy_records(self, check, body):
        from sineq import entropy

        shape, factor, measure = self.BODIES[body]
        tag = factor if check == "check_subadditivity" else measure
        record = _golden_entropy(getattr(entropy, check), shape, tag)
        assert record["method"].startswith("mc(")
        assert _record_digest(record) == self.ENTROPY[(check, body)]

    @pytest.mark.parametrize("norm, n", list(MOMENTS), ids=str)
    def test_moment_records(self, norm, n):
        assert _record_digest(_golden_moments(norm, n)) == self.MOMENTS[(norm, n)]

    @pytest.mark.parametrize("body", list(STATISTICS))
    def test_statistics(self, body):
        assert _record_digest(_golden_statistics(self.BODIES[body][0])) == self.STATISTICS[body]


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
    (lambda: tensor_quadrature(lambda r: r, 2, 8), r"integrand returned shape \(64, 2\)"),
    (lambda: Engine(seed=-1), r"seed must be in \[0, 2\*\*64\), got -1"),
    (lambda: Engine(seed=2**64), r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
    (lambda: Engine(stream=-1), r"^engine stream -1 outside \[0, 2\*\*62\): higher streams "
                                r"are reserved for rechecks$"),
    (lambda: Engine(stream=2**62), r"^engine stream 4611686018427387904 outside \[0, 2\*\*62\)"),
], ids=["engine-method", "integral-without-measure", "quadrature-measure",
        "quadrature-integrand-shape", "negative-seed", "seed-past-64-bits",
        "negative-stream", "recheck-stream"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
