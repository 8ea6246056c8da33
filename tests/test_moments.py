import math

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


class TestCertifiedRatio:
    def test_excursion_above_constant_is_rechecked(self):
        # the coordinate functional attains C(2, 1); at 2,000 samples, seed
        # 1459, the ratio reads 3.1 sigma above it and no recheck repeats that
        # (seed found by tests/data/repin_contract_2.py)
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                            Engine(method="mc", samples=2000, seed=1459))
        assert (pair.bound - pair.ratio) / pair.ratio_se == pytest.approx(-3.14, abs=0.01)
        assert (pair.verdict, pair.holds) == ("holds", True)
        assert pair.verdict_note == "initial 3-sigma excursion not reproduced"
        assert pair.to_record()["verdict"] == "holds"

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            moment_ratio(linf_norm(), 2.0, 1.0, 0, ENGINE)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_only_monte_carlo(self, method):
        with pytest.raises(ValueError):
            moment_ratio(linf_norm(), 2.0, 1.0, 2, Engine(method=method))
