import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sineq.bodies import (
    UnconditionalBody,
    box_body,
    cross_polytope,
    cube_body,
    norm_ball,
    product,
    strip_body,
    unconditional_lp_ball,
)
from sineq.integrate import Engine
from sineq.moments import (
    coordinate_norm,
    cpq,
    gauge_norm,
    l1_norm,
    linf_norm,
    lp_norm,
    moment_ratio,
)

ENGINE = Engine(method="mc", samples=200_000, seed=99)


def oracle_cpq(p: float, q: float) -> float:
    mp, _ = quad(lambda x: x**p * math.exp(-x), 0, np.inf)
    mq, _ = quad(lambda x: x**q * math.exp(-x), 0, np.inf)
    return mp ** (1 / p) / mq ** (1 / q)


class TestCpq:
    def test_equal_exponents(self):
        assert cpq(2.0, 2.0) == 1.0

    def test_two_one(self):
        assert cpq(2.0, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_four_two(self):
        assert cpq(4.0, 2.0) == pytest.approx(1.565084580073287, abs=1e-12)

    @pytest.mark.parametrize("p,q", [(2, 1), (4, 2), (3.5, 0.5), (10, 3)])
    def test_against_quadrature_oracle(self, p, q):
        assert cpq(p, q) == pytest.approx(oracle_cpq(p, q), rel=1e-8)

    def test_at_least_one(self):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
        for q in grid:
            for p in grid:
                if p >= q:
                    assert cpq(p, q) >= 1.0 - 1e-12

    def test_monotone_in_p(self):
        vals = [cpq(p, 1.0) for p in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            cpq(1.0, 2.0)
        with pytest.raises(ValueError):
            cpq(2.0, 0.0)
        with pytest.raises(ValueError):
            cpq(40.0, 1.0)


class TestMomentRatio:
    def test_coordinate_functional_attains_bound(self):
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 3, ENGINE)
        assert abs(pair.ratio - pair.bound) <= 3 * pair.ratio_se
        assert pair.holds

    def test_linf_below_bound(self):
        pair = moment_ratio(linf_norm(), 2.0, 1.0, 3, ENGINE)
        assert pair.ratio <= pair.bound + 3 * pair.ratio_se
        assert pair.holds

    def test_l1_below_bound(self):
        pair = moment_ratio(l1_norm(), 2.0, 1.0, 2, ENGINE)
        assert pair.holds

    def test_lp_norm_below_bound(self):
        pair = moment_ratio(lp_norm(3.0), 4.0, 1.5, 2, ENGINE)
        assert pair.holds

    def test_scale_invariance_bitwise_tight(self):
        base = lp_norm(2.0)
        scaled = lambda x: 7.5 * base(x)
        a = moment_ratio(base, 2.0, 1.0, 2, ENGINE)
        b = moment_ratio(scaled, 2.0, 1.0, 2, ENGINE)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)

    def test_shared_stream_reproducible(self):
        a = moment_ratio(linf_norm(), 2.0, 1.0, 2, ENGINE)
        b = moment_ratio(linf_norm(), 2.0, 1.0, 2, ENGINE)
        assert a.ratio == b.ratio and a.ratio_se == b.ratio_se

    def test_lp_inf_is_the_max_norm(self):
        # |x|^inf is 0 or inf, so the l_p formula itself would read 1 on every row
        x = np.array([[0.5, -2.0], [3.0, 0.1]])
        assert lp_norm(math.inf)(x).tolist() == [2.0, 3.0]
        a = moment_ratio(lp_norm(math.inf), 2.0, 1.0, 3, ENGINE)
        b = moment_ratio(linf_norm(), 2.0, 1.0, 3, ENGINE)
        assert (a.ratio, a.ratio_se, a.moment_p, a.moment_q) == (
            b.ratio, b.ratio_se, b.moment_p, b.moment_q)

    @pytest.mark.filterwarnings("error")
    def test_lp_norm_rescales_only_rows_outside_the_normal_range(self, rng):
        # at p = 400, 10^p overflows and 0.1^p underflows to 0; 1.2^p and
        # 0.2^p stay normal and keep the bits of the plain formula
        x = np.array([[10.0, -1.0], [0.1, 0.1], [0.0, 0.0], [1.2, 0.2]])
        assert lp_norm(400.0)(x).tolist() == [
            10.0, 0.1 * 2.0 ** (1 / 400), 0.0, (1.2**400 + 0.2**400) ** (1 / 400)]
        y = rng.standard_normal((1000, 3))
        assert np.array_equal(lp_norm(3.0)(y), (np.abs(y) ** 3).sum(axis=1) ** (1 / 3))

    def test_norm_contract_violation_raises(self):
        shifted = lambda x: np.abs(x[:, 0]) + 1.0  # not homogeneous
        with pytest.raises(ValueError):
            moment_ratio(shifted, 2.0, 1.0, 2, ENGINE)

    @pytest.mark.parametrize("index", [5, 2, -1])
    def test_coordinate_index_outside_dimension_raises(self, index):
        with pytest.raises(ValueError, match=f"coordinate index {index} outside"):
            moment_ratio(coordinate_norm(index), 2, 1, 2)

    def test_body_argument_uses_gauge(self):
        pair = moment_ratio(cube_body(2.0, 2), 2.0, 1.0, 2, ENGINE)
        direct = moment_ratio(lambda x: np.abs(x).max(axis=1) / 2.0, 2.0, 1.0, 2,
                              ENGINE, norm_desc="linf/2")
        assert pair.ratio == pytest.approx(direct.ratio, rel=1e-12)


class TestGaugeNorm:
    def test_cube_closed_form(self, rng):
        g = gauge_norm(cube_body(2.0, 3))
        x = rng.standard_normal((100, 3))
        assert np.allclose(g(x), np.abs(x).max(axis=1) / 2.0)

    def test_cross_polytope_closed_form(self, rng):
        g = gauge_norm(cross_polytope(1.5, 2))
        x = rng.standard_normal((100, 2))
        assert np.allclose(g(x), np.abs(x).sum(axis=1) / 1.5)

    def test_lp_ball_closed_form(self, rng):
        body = unconditional_lp_ball(3.0, 2, 1.2, [1.0, 2.0])
        g = gauge_norm(body)
        x = rng.standard_normal((100, 2))
        expected = ((np.abs(x) * [1.0, 2.0]) ** 3).sum(axis=1) ** (1 / 3) / 1.2
        assert np.allclose(g(x), expected)

    def test_norm_ball_gauge_matches_closed(self, rng):
        ball = norm_ball(lambda x: (np.abs(x) ** 2).sum(axis=1) ** 0.5, 1.0, 2)
        g = gauge_norm(ball)
        x = rng.standard_normal((200, 2)) * 2
        assert np.allclose(g(x), np.hypot(x[:, 0], x[:, 1]), rtol=1e-12, atol=0)

    def test_small_gauges_resolve(self):
        # a bisection bracketed from [0, 1] read 8.7e-19 at both points
        g = gauge_norm(norm_ball(lp_norm(2.0), 1e30, 2))
        small, zero = g(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert small == pytest.approx(5e-30, rel=1e-15)
        assert zero == 0.0

    def test_box_gauge_keeps_its_bits(self, rng):
        x = rng.standard_normal((500, 3)) * 2
        radii = np.array([0.5, 1.5, 2.5])
        assert np.array_equal(gauge_norm(box_body(radii))(x), (np.abs(x) / radii).max(axis=1))
        assert np.array_equal(gauge_norm(cube_body(2.0, 3))(x), (np.abs(x) / 2.0).max(axis=1))

    def test_unbounded_body_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            gauge_norm(strip_body(1.0, 2))

    def test_unbounded_product_rejected(self):
        # no coordinate box, yet unbounded along the strip's free axis
        with pytest.raises(ValueError, match="unbounded"):
            gauge_norm(product(strip_body(1.0, 2), unconditional_lp_ball(2.0, 2)))

    def test_body_without_gauge_rejected(self):
        body = UnconditionalBody(dim=2, kind="custom", params={"n": 2},
                                 base=lambda m: m.sum(axis=1) <= 1.0)
        with pytest.raises(ValueError, match="has no gauge"):
            gauge_norm(body)

    def test_non_homogeneous_norm_ball_fails_the_norm_contract(self):
        # the unit ball of |x|^2 is the l2 ball, but its gauge is the
        # function itself, which is not a norm
        ball = norm_ball(lambda x: (x**2).sum(axis=1), 1.0, 2)
        with pytest.raises(ValueError, match="not positively homogeneous"):
            moment_ratio(ball, 2.0, 1.0, 2, ENGINE)


def _signed_points() -> np.ndarray:
    """Rows with negative entries and -0.0, as a caller may pass them."""
    x = np.random.default_rng(12).standard_normal((300, 4)) * 2
    x[::7, 1] = -0.0
    x[::11] = -0.0
    return x


NORMS = [lp_norm(3.0), lp_norm(1.0), lp_norm(math.inf), lp_norm(400.0), l1_norm(),
         linf_norm(), coordinate_norm(2)]
GAUGE_BODIES = [box_body([0.5, 1.5, 2.5, 3.0]),
                unconditional_lp_ball(3.0, 4, 1.7, [0.9, 1.0, 1.1, 1.2]),
                cross_polytope(1.5, 4), norm_ball(lp_norm(2.5), 1.3, 4)]


class TestNoWrites:
    """No norm or gauge writes its input; a gauge norm is the body's gauge
    at |x| to the bit."""

    @pytest.mark.parametrize("norm", NORMS, ids=lambda f: f.__name__)
    def test_norm_leaves_its_input(self, norm):
        x = _signed_points()
        before = x.copy()
        norm(x)
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("body", GAUGE_BODIES, ids=lambda b: b.kind)
    def test_gauge_norm_is_the_gauge_at_abs_and_leaves_its_input(self, body):
        x = _signed_points()
        before = x.copy()
        got = gauge_norm(body)(x)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == body.gauge(np.abs(x)).tobytes()
        radii = np.abs(x)
        body.gauge(radii)
        assert radii.tobytes() == np.abs(before).tobytes()


def test_gauge_moment_ratio_allocation_is_pinned():
    # a second pass over two blocks of a 4-dimensional l_p ball's gauge:
    # the draws go into the retained sub-block buffer and the gauge folds
    # one weighted column at a time, so no (SUB, n) array is made per
    # sub-block but the gauge norm's |x|; drawing each sub-block fresh and
    # weighting the whole array peaked at 3.5 MiB
    norm = gauge_norm(unconditional_lp_ball(3.0, 4, 2.0, [0.9, 1.0, 1.1, 1.2]))
    engine = Engine(method="mc", samples=262_000, seed=3)
    moment_ratio(norm, 2.0, 1.0, 4, engine)
    tracemalloc.start()
    try:
        moment_ratio(norm, 2.0, 1.0, 4, engine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestCertifiedRatio:
    def test_excursion_above_constant_is_rechecked(self):
        # the coordinate functional attains C(2, 1); at 2,000 samples, seed
        # 1459, the ratio reads 3.1 sigma above it and no recheck repeats that
        # (seed found by `git show 0035a95:tests/data/repin_contract_2.py`)
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                            Engine(method="mc", samples=2000, seed=1459))
        assert (pair.bound - pair.ratio) / pair.ratio_se == pytest.approx(-3.14, abs=0.01)
        assert (pair.verdict, pair.holds) == ("holds", True)
        assert pair.verdict_note == "initial 3-sigma excursion not reproduced"
        assert pair.to_record()["verdict"] == "holds"

    # the record of this case, re-pinned for sampling contract 4 by
    # tests/data/repin_contract_4.py
    RECHECKED_RECORD = (
        '{"bound": 1.4142135623730951, "kind": "moment-ratio", '
        '"margin": -0.004507205477353393, "method": "mc(300000, 338)", '
        '"moment_p": 1.4258405223759059, "moment_q": 1.0050184325815184, "n": 2, '
        '"norm": "coord:0", "p": 2.0, "q": 1.0, "ratio": 1.4187207678504485, '
        '"ratio_se": 0.0013215466530676096, "reference": 1.4142135623730951, '
        '"samples": 300000, "sampling_contract": 4, "seed": 338, '
        '"std_error": 0.0013215466530676096, "tolerance": 0.003964639959202829, '
        '"value": 1.4187207678504485, "verdict": "holds"}')

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recheck_path_record_is_pinned(self, monkeypatch, workers):
        # 3.4 sigma above C(2, 1) at seed 338: the three rechecks run and
        # none reproduces it
        from sineq import integrate

        passes = []
        original = integrate.run_chunked

        def counted(measure, samples, seed, stream, *args):
            passes.append((samples, seed, stream))
            return original(measure, samples, seed, stream, *args)

        monkeypatch.setattr(integrate, "run_chunked", counted)
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 2,
                            Engine(method="mc", samples=300_000, seed=338, workers=workers))
        assert passes == [(300_000, 338, 0)] + [(600_000, 338, k << 62) for k in (1, 2, 3)]
        assert (pair.verdict, pair.verdict_note) == (
            "holds", "initial 3-sigma excursion not reproduced")
        assert json.dumps(pair.to_record(), sort_keys=True) == self.RECHECKED_RECORD

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            moment_ratio(linf_norm(), 2.0, 1.0, 0, ENGINE)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_only_monte_carlo(self, method):
        with pytest.raises(ValueError):
            moment_ratio(linf_norm(), 2.0, 1.0, 2, Engine(method=method))


@pytest.mark.parametrize("call, match", [
    (lambda: lp_norm(0.5), "norm exponent must be >= 1"),
    (lambda: moment_ratio(lambda x: np.abs(x[:, 0] + 0.5 * x[:, 1]), 2.0, 1.0, 2, ENGINE),
     "not sign-invariant"),
], ids=["lp-below-one", "sign-variant-norm"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("make, name", [
    (linf_norm, "linf"), (l1_norm, "l1"), (lambda: lp_norm(3.0), "lp:3"),
    (lambda: lp_norm(math.inf), "lp:inf"), (lambda: coordinate_norm(1), "coord:1"),
    (lambda: lp_norm(2.0), "lp:2"), (lambda: lp_norm(2.0000001), "lp:2.0000001"),
    (lambda: lp_norm(np.float64(3)), "lp:3"),
    (lambda: gauge_norm(cross_polytope(1.5, 2)), "gauge[cross-polytope:scale=1.5,n=2]"),
    (lambda: cross_polytope(1.5, 2), "gauge[cross-polytope:scale=1.5,n=2]"),
], ids=["linf", "l1", "lp3", "lpinf", "coord1", "lp2", "lp2.0000001", "lp3-numpy",
        "gauge", "body"])
def test_records_name_the_factory_norms(make, name):
    engine = Engine(method="mc", samples=2000, seed=1)
    assert moment_ratio(make(), 2.0, 1.0, 2, engine).to_record()["norm"] == name
