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
    SampleStream,
    certify,
    chunk_indices,
    draw_points,
    estimate,
    mc_integral,
    mc_measure,
    point_drawer,
    record,
    tensor_quadrature,
    tolerance,
)
from sineq.measures import MeasureKind, complex_gaussian, exponential

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


class TestTakeRows:
    """Drawing only the rows taken gives the rows of a whole-block draw."""

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_draw_points_is_prefix_of_whole_block(self, measure):
        stream = SampleStream(77, 3)
        whole = point_drawer(measure)(stream.generator(5), CHUNK)
        for take in TAKES:
            assert np.array_equal(draw_points(measure, stream, 5, take), whole[:take])

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_sample_stream_draw_is_prefix_of_whole_blocks(self, measure):
        fn = point_drawer(measure)
        whole = np.concatenate([fn(SampleStream(77, 3).generator(b), CHUNK) for b in (0, 1)])
        for count in TAKES + (CHUNK + 999,):
            assert np.array_equal(draw(measure, SampleStream(77, 3), count), whole[:count])
            assert len(chunk_indices(count)) == -(-count // CHUNK)

    @pytest.mark.parametrize("measure", DRAW_MEASURES, ids=lambda m: m.tag)
    def test_draw_points_from_a_row_is_the_slice_of_the_block(self, measure):
        stream = SampleStream(77, 3)
        whole = point_drawer(measure)(stream.generator(5), CHUNK)
        for start, take in ((0, 10), (1, 7), (3, 999), (SUB, SUB), (CHUNK - 5, 5)):
            assert np.array_equal(draw_points(measure, stream, 5, take, start),
                                  whole[start:start + take])


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
        # each mean is the one-column quadrature of a contiguous copy, to the bit
        per_column = [tensor_quadrature(lambda r, j=j: np.array(columns(r)[:, j]), n, 12, tag)
                      for j in range(3)]
        assert p.means.tolist() == [e.value for e in per_column]

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


def _golden_moments(norm, n):
    from sineq import moments

    make = {"linf": moments.linf_norm, "l1": moments.l1_norm,
            "lp:3": lambda: moments.lp_norm(3.0),
            "gauge": lambda: unconditional_lp_ball(2.5, n, 1.3, [0.8, 1.0, 1.2, 1.1][:n])}
    return moments.moment_ratio(make[norm](), 2.5, 0.75, n,
                                Engine(method="mc", samples=70_000, seed=29)).to_record()


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
            "fc4fe18c52ba18a0df424175dc8951e74a47e26fb301dc55e71f8605f4b2e3e8",
        ("linf", 3):
            "59df6abbe9873ade2978433af2bf176b3c1e28eab50a1349913b0b4ca3bfdb49",
        ("linf", 4):
            "dd49a03166ab6c57c8530e05167d3c10046f66376665bb8d2649dbcb4f2039a5",
        ("l1", 2):
            "9f1930b2ae1dc75b96e4024208e5d2bbb85059c30c2d2a50b0c04b1c470c771e",
        ("l1", 3):
            "34cd2621398387abdd048ac3069d3b9c60a3d6f341b3165ce62489384b3bf085",
        ("l1", 4):
            "72a81919a08075724501ee591f5e05ffb52ea706c65c7065721a49805aa613ce",
        ("lp:3", 2):
            "eb358726b1148fc89e2663c7917e0e3a91bf6473ec7e15e95cfaceaa1af72463",
        ("lp:3", 3):
            "309451a55bd9f74f4a09c2accb10c111ef0260e83000d5402dc352da31bfebb8",
        ("lp:3", 4):
            "36d2cc0801195e65552d6be20aa1a9f649744e5487797c8c32ab8bbc45dcf6ef",
        ("gauge", 2):
            "066082e1e109488ace72c959bc4cb9a70e2f2abfed7e540cfaea11464387201a",
        ("gauge", 3):
            "3e721a481b6032b80d33d37eed462ba6b56b35fb720ce68df8ba227aa34ae6c4",
        ("gauge", 4):
            "c317d5a6bd03bb92e59357f1b8d736c7469cd877b294237f55abbc435f72c787",
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
    error sqrt(cov[0, 0])."""

    @staticmethod
    def make_pass(method: str, margin: float, se: float = 0.0) -> Pass:
        return Pass(method, 1, 0, 100, np.array([margin]), np.array([[se**2]]))

    @staticmethod
    def margin(p: Pass) -> tuple[float, float]:
        return float(p.means[0]), math.sqrt(float(p.cov[0, 0]))

    def test_negative_deterministic_margin_is_violated_without_rechecks(self):
        def no_recheck(k):
            raise AssertionError("a deterministic margin must not be rechecked")

        primary = self.make_pass("closed-form", -1e-6)
        assert certify(primary, self.margin, no_recheck) == ("violated", "deterministic margin")
        within = self.make_pass("closed-form", -0.5 * DET_TOL)
        assert certify(within, self.margin, no_recheck) == ("holds", "")

    def test_disagreeing_rechecks_are_inconclusive(self):
        primary = self.make_pass("mc(100, 1)", -0.4, 0.1)  # -4 sigma
        rechecked = {1: self.make_pass("mc(200, 1)", -0.5, 0.1),  # reproduces
                     2: self.make_pass("mc(200, 1)", 0.1, 0.1),   # holds
                     3: self.make_pass("mc(200, 1)", -0.5, 0.1)}
        calls = []

        def recheck(k):
            calls.append(k)
            return rechecked[k]

        assert certify(primary, self.margin, recheck) == ("inconclusive", "rechecks disagree")
        assert calls == [1, 2, 3]


class TestRecord:
    def test_tolerance_column_is_the_margins(self):
        rec = record(0.5, 0.001, 0.4, 0.1, 0.006, "holds", 1000, "mc(1000, 1)")
        assert rec == {"value": 0.5, "std_error": 0.001, "reference": 0.4, "margin": 0.1,
                       "tolerance": tolerance(0.006), "verdict": "holds", "samples": 1000,
                       "method": "mc(1000, 1)", "sampling_contract": SAMPLING_CONTRACT}
        assert record(1.0, 0.0, 1.0, 0.0, 0.0, "holds", 0, "closed-form")["tolerance"] == DET_TOL
