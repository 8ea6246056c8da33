import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sineq.bodies import polydisc, strip_body
from sineq.integrate import Engine
from sineq.measures import (
    EXP_FACTOR,
    RADIAL_FACTOR,
    MeasureKind,
    abs_moment_exponential,
    cylinder_measure,
    cylinder_second_moment,
    exp_strip_first_moment,
    exp_strip_measure,
    fold_columns,
    lp_rows,
    moduli,
    xlnx,
)
from sineq.verify import body_statistics, calibrate_cylinder

SQRT_2LN2 = 1.1774100225154747  # radius of the half-measure cylinder


class TestCylinderMeasure:
    def test_zero_radius(self):
        assert cylinder_measure(0.0, 3) == 0.0

    def test_full_space(self):
        assert cylinder_measure(math.inf, 1) == 1.0

    def test_half_measure_radius(self):
        assert cylinder_measure(SQRT_2LN2, 2) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_independent(self):
        vals = {cylinder_measure(1.3, n) for n in (1, 2, 5, 9)}
        assert len(vals) == 1

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 4.0, 50)
        vals = [cylinder_measure(float(r), 1) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            cylinder_measure(-0.1, 1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            cylinder_measure(1.0, 0)


class TestCylinderSecondMoment:
    def test_measure_zero_set(self):
        assert cylinder_second_moment(0.0, 5) == 0.0

    def test_half_measure_disc(self):
        # plugging m = 1/2 into the closed form gives 1 - ln 2
        assert cylinder_second_moment(SQRT_2LN2, 1) == pytest.approx(
            0.3068528194400547, abs=1e-12
        )

    def test_full_space_returns_total_second_moment(self):
        assert cylinder_second_moment(math.inf, 2) == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("R", [0.3, 0.8, SQRT_2LN2, 1.9, 2.7])
    def test_against_quadrature_oracle(self, R):
        # independent route: int_0^R r^2 * (r e^{-r^2/2}) dr for the n=1 disc
        oracle, err = quad(lambda r: r**3 * math.exp(-(r * r) / 2), 0.0, R)
        assert err < 1e-12
        assert cylinder_second_moment(R, 1) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reduces_to_disc_plus_free_coordinates(self, R, n):
        m = cylinder_measure(R, 1)
        expected = cylinder_second_moment(R, 1) + 2 * (n - 1) * m
        assert cylinder_second_moment(R, n) == pytest.approx(expected, abs=1e-12)


class TestRadialCdf:
    """The radial factor's CDF is the measure of a cylinder, and its quantile
    the cylinder calibration."""

    def test_at_zero(self):
        assert cylinder_measure(0.0, 1) == 0.0

    def test_inverse_at_half(self):
        assert calibrate_cylinder(0.5) == pytest.approx(SQRT_2LN2, abs=1e-14)

    def test_u_side_round_trip(self):
        for u in (0.0, 0.1, 0.5, 0.9, 0.999999):
            assert cylinder_measure(calibrate_cylinder(u), 1) == pytest.approx(u, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=4.5))
    def test_r_side_round_trip_on_stable_range(self, r):
        # binary64 cannot carry tails below ~1e-10 through the CDF value,
        # so the identity is only exact-to-1e-12 up to r ~ 4.5
        assert calibrate_cylinder(cylinder_measure(r, 1)) == pytest.approx(r, abs=2e-12)

    def test_r_side_degradation_is_bounded(self):
        assert abs(calibrate_cylinder(cylinder_measure(6.0, 1)) - 6.0) < 1e-8
        assert abs(calibrate_cylinder(cylinder_measure(8.0, 1)) - 8.0) < 1e-3

    def test_inverse_rejects_one(self):
        with pytest.raises(ValueError):
            calibrate_cylinder(1.0)

    def test_inverse_rejects_outside(self):
        with pytest.raises(ValueError):
            calibrate_cylinder(-0.01)


class TestExpStrip:
    def test_measure_endpoints(self):
        assert exp_strip_measure(0.0) == 0.0
        assert exp_strip_measure(math.inf) == 1.0
        assert exp_strip_measure(math.log(2)) == pytest.approx(0.5, abs=1e-14)

    def test_first_moment_zero_width(self):
        assert exp_strip_first_moment(0.0, 4) == 0.0

    def test_first_moment_value(self):
        # 2 - 3/e, cross-checked below by quadrature
        assert exp_strip_first_moment(1.0, 2) == pytest.approx(
            0.896361676485673, abs=1e-12
        )

    def test_first_moment_against_quadrature_oracle(self):
        # per-coordinate split: restricted |x_1| moment plus the free
        # coordinate's mean 1 weighted by the strip measure
        for p, n in [(0.4, 1), (1.0, 2), (2.3, 3)]:
            restricted, _ = quad(lambda x: x * math.exp(-x), 0.0, p)
            oracle = restricted + (n - 1) * exp_strip_measure(p)
            assert exp_strip_first_moment(p, n) == pytest.approx(oracle, abs=1e-10)

    def test_full_space_total_moment(self):
        assert exp_strip_first_moment(math.inf, 3) == 3.0

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=2, max_value=8),
    )
    def test_free_coordinate_identity(self, p, n):
        lhs = exp_strip_first_moment(p, n) - exp_strip_first_moment(p, 1)
        assert lhs == pytest.approx((n - 1) * exp_strip_measure(p), abs=1e-12)


def _decimal_box_moment(a: float, n: int, d: int) -> Decimal:
    """Weight moment of the box (a, inf, ..., inf) under the n-fold factor
    of degree d, in 60-digit decimal: d (1 - (1+u) e^-u) for the bounded
    coordinate plus d (1 - e^-u) for each free one, u = a^d / d."""
    with localcontext() as ctx:
        ctx.prec = 60
        u = Decimal(a) ** d / d
        e = (-u).exp()
        return d * (1 - (1 + u) * e) + (n - 1) * d * (1 - e)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_comparison_moments_against_decimal(n):
    # written in u, the box form keeps its precision at small R and p, where
    # a form in the measure m = 1 - exp(-u) cancels
    worst = 0.0
    for R in np.geomspace(0.01, 9.0, 200):
        exact = _decimal_box_moment(float(R), n, 2)
        worst = max(worst, abs(float((Decimal(cylinder_second_moment(R, n)) - exact) / exact)))
    for p in np.geomspace(0.001, 50.0, 200):
        exact = _decimal_box_moment(float(p), n, 1)
        worst = max(worst, abs(float((Decimal(exp_strip_first_moment(p, n)) - exact) / exact)))
    assert worst < 1e-11


class TestAbsMomentExponential:
    def test_mean(self):
        assert abs_moment_exponential(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_second(self):
        assert abs_moment_exponential(2.0) == pytest.approx(2.0, rel=1e-13)

    def test_half(self):
        assert abs_moment_exponential(0.5) == pytest.approx(
            0.886226925452758, rel=1e-12
        )

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.5, 3.0, 7.5])
    def test_against_quadrature_oracle(self, p):
        oracle, _ = quad(lambda x: x**p * math.exp(-x), 0.0, np.inf)
        assert abs_moment_exponential(p) == pytest.approx(oracle, rel=1e-9)

    def test_relative_accuracy_across_range(self):
        for i in range(1, 301):
            p = 0.1 * i
            assert abs_moment_exponential(p) == pytest.approx(
                math.gamma(p + 1.0), rel=1e-12
            )

    def test_integers_give_exact_factorials(self):
        # Gamma(p+1) = p!, to the bit
        for p in (1, 2, 3, 4, 6):
            assert abs_moment_exponential(p) == math.factorial(p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            abs_moment_exponential(0.0)
        with pytest.raises(ValueError):
            abs_moment_exponential(-1.0)


class TestXlnx:
    def test_zero_convention(self):
        assert xlnx(0.0) == 0.0

    def test_value(self):
        assert xlnx(0.5) == pytest.approx(-0.34657359027997264, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            xlnx(-1e-9)


class TestMeasureKind:
    @pytest.mark.parametrize("tag, weight", [("complex-gaussian", 5.0), ("radial-mu", 5.0),
                                             ("exponential", 3.0), ("exponential-1d", 3.0)])
    def test_weight_is_the_sum_of_radii_to_the_degree(self, tag, weight):
        # sum_k r_k^d of the radii (1, 2): d = 2 gives 5, d = 1 gives 3
        assert MeasureKind(tag, 2).weight([[1, 2]]).tolist() == [weight]

    @pytest.mark.parametrize("tag", ["radial-mu", "exponential-1d"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_column_adds_are_the_row_sums_to_the_bit(self, tag, n):
        # the weight and the sum of u_k are added a column at a time; for
        # short rows numpy's row sum adds in the same order
        kind = MeasureKind(tag, n)
        d, u = kind.factor.d, kind.factor.u
        for seed in range(10):
            r = kind.factor.quantile(np.random.default_rng(seed).random((5000, n)))
            extremes = np.array([0.0, 1e-300, 1e-160, 1.0, 3.5, 40.0, 1e150])
            r[:7] = extremes[(np.arange(7)[:, None] + np.arange(n)) % 7]
            assert np.array_equal(kind.weight(r), (r**d).sum(axis=1))
            assert np.array_equal(fold_columns(np.add, r, f=u), u(r).sum(axis=1))

    @staticmethod
    def rows(seed: int, n: int) -> np.ndarray:
        """Radii at mixed scales with exact zeros, ones and infinities."""
        rng = np.random.default_rng(seed)
        scales = rng.choice([1e-200, 1e-3, 1.0, 1e3], size=(20_000, 1))
        r = rng.exponential(size=(20_000, n)) * scales
        r[rng.random(r.shape) < 0.1] = 0.0
        r[rng.random(r.shape) < 0.05] = 1.0
        r[rng.random(r.shape) < 0.01] = math.inf
        return r

    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_folds_are_numpys_row_reductions_to_the_bit(self, n):
        # short rows: numpy adds in coordinate order too (a row of -0.0
        # alone could differ in the sign of its zero; the draws make none)
        for seed in range(5):
            r = self.rows(seed, n)
            inside = r <= 1.0
            assert np.array_equal(fold_columns(np.add, r), r.sum(axis=1))
            assert np.array_equal(fold_columns(np.maximum, r), r.max(axis=1))
            assert np.array_equal(fold_columns(np.logical_and, inside), inside.all(axis=1))
            for k in range(n):
                others = np.delete(r, k, axis=1)
                assert np.array_equal(fold_columns(np.add, r, k), others.sum(axis=1))
                assert np.array_equal(fold_columns(np.logical_and, inside, k),
                                      np.delete(inside, k, axis=1).all(axis=1))

    def test_column_folds_of_long_rows_agree_to_rounding(self):
        # from n = 8 numpy sums a row in pairs, so sums may move in the last bits
        r = self.rows(9, 9)
        r[~np.isfinite(r)] = 2.0
        np.testing.assert_allclose(fold_columns(np.add, r), r.sum(axis=1), rtol=1e-14, atol=0)
        assert np.array_equal(fold_columns(np.maximum, r), r.max(axis=1))
        for k in (0, 4, 8):
            np.testing.assert_allclose(fold_columns(np.add, r, k),
                                       np.delete(r, k, axis=1).sum(axis=1), rtol=1e-14, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureKind("gaussian", 1)
        with pytest.raises(ValueError):
            MeasureKind("exponential", 0)


class TestQuantile:
    @pytest.mark.parametrize("factor", [RADIAL_FACTOR, EXP_FACTOR], ids=lambda f: f.tag)
    def test_in_place_kernel_is_the_quantile(self, factor):
        v = np.random.default_rng(3).random((1000, 3))
        kept = v.copy()
        q = factor.quantile(v)
        assert np.array_equal(v, kept)  # quantile leaves its argument alone
        assert np.array_equal(q, factor.r(-np.log1p(-v)))  # the formula, written out
        assert factor.quantile_in_place(v) is v and np.array_equal(v, q)
        assert factor.quantile(0.5) == pytest.approx(factor.r(math.log(2.0)), rel=1e-15)


class TestRestrictedWeight:
    """int_0^a r^d dmu against quadrature: the u-space form holds its
    accuracy at small a, where 2F + 2(1-F)ln(1-F) cancels."""

    RADII = (0.01, 0.03, 0.1, 1.0, 3.0)

    @staticmethod
    def _quad(density, a):
        return quad(density, 0.0, a, epsabs=0.0, epsrel=1e-13)[0]

    @pytest.mark.parametrize("a", RADII)
    def test_radial_factor(self, a):
        truth = self._quad(lambda r: r**3 * math.exp(-0.5 * r * r), a)
        assert abs(RADIAL_FACTOR.weight(a) - truth) <= 1e-11 * truth
        # the same number reaches the closed-form moment of a disc
        moment = body_statistics(polydisc([a]), None, (), Engine(method="exact")).moment
        assert abs(moment - truth) <= 1e-11 * truth

    @pytest.mark.parametrize("a", RADII)
    def test_exponential_factor(self, a):
        truth = self._quad(lambda x: x * math.exp(-x), a)
        assert abs(EXP_FACTOR.weight(a) - truth) <= 1e-11 * truth
        moment = body_statistics(strip_body(a, 1), None, (), Engine(method="exact")).moment
        assert abs(moment - truth) <= 1e-11 * truth

    def test_full_space(self):
        assert (RADIAL_FACTOR.weight(math.inf), EXP_FACTOR.weight(math.inf)) == (2.0, 1.0)

    @pytest.mark.parametrize("a", [1e155, 1e200, 1e308, math.inf])
    def test_huge_radius_is_the_full_space(self, a):
        # u = a^2/2 overflows from a = 1.3e154, where u * exp(-u) is NaN
        assert (RADIAL_FACTOR.weight(a), EXP_FACTOR.weight(a)) == (2.0, 1.0)

    def test_huge_box_radius_has_the_closed_forms_of_an_infinite_one(self):
        from sineq.bodies import closed_forms

        grid = (0.5, 1.0, 2.0)
        huge, inf = (closed_forms(polydisc([1.0, b]), RADIAL_FACTOR, grid)
                     for b in (1e200, math.inf))
        assert huge == inf
        assert huge.moment == RADIAL_FACTOR.comparison_moment(RADIAL_FACTOR.cdf(1.0), 2)[0]


class TestLpRows:
    def test_reads_its_input_and_recomputes_the_rows_out_of_range(self):
        # at p = 400, 10^p overflows and 0.1^p underflows to 0; 1.2^p and
        # 0.2^p stay normal and keep the bits of the plain formula
        x = np.array([[10.0, 1.0], [0.1, 0.1], [0.0, 0.0], [1.2, 0.2]])
        a = x.copy()
        out = lp_rows(a, 400.0)
        assert out.tolist() == [10.0, 0.1 * 2.0 ** (1 / 400), 0.0,
                                (1.2**400 + 0.2**400) ** (1 / 400)]
        assert np.array_equal(a, x)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
    def test_weighted_columns_keep_the_bits_of_the_whole_array(self, p):
        # one weighted column at a time gives the bits of weighting the
        # whole array, raising it to the p-th power and folding its columns;
        # signs do not count
        a = np.random.default_rng(5).exponential(size=(999, 4)) * [1.0, 1e-3, 1e3, 1.0]
        w = np.array([0.9, 1.0, 1.1, 1.2])
        if math.isinf(p):
            expected = fold_columns(np.maximum, w * a)
        else:
            expected = fold_columns(np.add, np.power(w * a, p)) ** (1.0 / p)
        assert np.array_equal(lp_rows(a, p, w), expected)
        assert np.array_equal(lp_rows(-a, p, w), expected)


@pytest.mark.parametrize("call, match", [
    (lambda: moduli(np.zeros((2, 3))), "even number of real coordinates"),
    (lambda: exp_strip_measure(-1.0), "half-width must be >= 0"),
    (lambda: cylinder_measure(math.nan, 2), "radius must be >= 0"),
    (lambda: cylinder_second_moment(math.nan, 2), "radius must be >= 0"),
    (lambda: exp_strip_measure(math.nan), "half-width must be >= 0"),
    (lambda: exp_strip_first_moment(math.nan, 2), "half-width must be >= 0"),
    (lambda: abs_moment_exponential(math.nan), "exponent must be > 0"),
], ids=["moduli-odd-width", "strip-negative", "cylinder-nan", "cylinder-moment-nan",
        "strip-nan", "strip-moment-nan", "abs-moment-nan"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
