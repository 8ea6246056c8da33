import itertools
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

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
from sineq.integrate import DET_TOL, SAMPLING_CONTRACT, Engine
from sineq.moments import (
    MAX_LAW_DIM,
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

    def test_only_norms_without_a_moment_law_are_sampled_for_the_contract(self, monkeypatch):
        # a norm with a law is a norm by construction; every other norm,
        # lp:3 and an l_p ball's gauge here, runs the sampled check
        from sineq import moments

        checked = []
        monkeypatch.setattr(moments, "check_norm_contract",
                            lambda norm, n, seed: checked.append(norm.__name__) or [])
        norms = [coordinate_norm(0), linf_norm(), l1_norm(), lp_norm(math.inf), lp_norm(1.0),
                 lp_norm(3.0), gauge_norm(cube_body(1.2, 3)), gauge_norm(box_body([1, 2, 3])),
                 gauge_norm(cross_polytope(2.0, 3)), gauge_norm(unconditional_lp_ball(3.0, 3, 1.4))]
        for norm in norms:
            moment_ratio(norm, 2.3, 0.7, 3, Engine(method="mc", samples=2000))
        assert checked == [norms[5].__name__, norms[-1].__name__]

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
    @staticmethod
    def ratio_pass(z: float, se: float) -> tuple[list[float], np.ndarray]:
        """Means and covariance of the columns (|x_0|^2, |x_0|) of the
        coordinate functional at which its ratio for p = 2, q = 1 reads
        ``z`` standard errors ``se`` below C(2, 1)."""
        ratio = cpq(2.0, 1.0) - z * se
        return [ratio * ratio, 1.0], np.diag([(2.0 * ratio * se) ** 2, 0.0])

    def rechecked(self, z: float, se: float, recheck_zs) -> dict:
        """A primary pass at ``z`` and recheck k at ``recheck_zs[k - 1]``,
        each recheck at twice the samples."""
        return {0: self.ratio_pass(z, se), **{
            k << 62: self.ratio_pass(zk, se / math.sqrt(2))
            for k, zk in enumerate(recheck_zs, start=1)}}

    def test_excursion_above_constant_is_rechecked(self, choose_passes):
        # the coordinate functional attains C(2, 1); the ratio reads 3.17
        # sigma above it and no recheck repeats that
        calls = choose_passes(self.rechecked(-3.17, 0.035, [-1.2, 0.4, -2.9]))
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                            Engine(method="mc", samples=2000, seed=5))
        assert len(calls) == 4
        assert (pair.bound - pair.ratio) / pair.ratio_se == pytest.approx(-3.17, abs=1e-9)
        assert (pair.verdict, pair.holds) == ("holds", True)
        assert pair.verdict_note == "initial 3-sigma excursion not reproduced"
        assert pair.to_record()["verdict"] == "holds"

    # the record of this case but its sampling_contract
    RECHECKED_RECORD = (
        '{"bound": 1.4142135623730951, "kind": "moment-ratio", '
        '"margin": -0.0044200000000000905, "method": "mc(300000, 523)", '
        '"moment_p": 1.4186335623730952, "moment_q": 1.0, "n": 2, '
        '"norm": "coord:0", "p": 2.0, "q": 1.0, "ratio": 1.4186335623730952, '
        '"ratio_se": 0.0013000000000000002, "reference": 1.4142135623730951, '
        '"samples": 300000, "seed": 523, '
        '"std_error": 0.0013000000000000002, "tolerance": 0.0039000000000000007, '
        '"value": 1.4186335623730952, "verdict": "holds"}')

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recheck_path_record_is_pinned(self, choose_passes, workers):
        # 3.4 sigma above C(2, 1): the three rechecks run and none
        # reproduces it; the record is that of the primary pass
        calls = choose_passes(self.rechecked(-3.4, 0.0013, [-0.7, 1.1, 0.2]))
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 2,
                            Engine(method="mc", samples=300_000, seed=523, workers=workers))
        assert calls == [(300_000, 523, 0, workers)] + [
            (600_000, 523, k << 62, workers) for k in (1, 2, 3)]
        assert (pair.verdict, pair.verdict_note) == (
            "holds", "initial 3-sigma excursion not reproduced")
        record = pair.to_record()
        assert record.pop("sampling_contract") == SAMPLING_CONTRACT
        assert json.dumps(record, sort_keys=True) == self.RECHECKED_RECORD

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            moment_ratio(linf_norm(), 2.0, 1.0, 0, ENGINE)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_only_monte_carlo(self, method):
        # lp:3 has no moment law, so Monte Carlo is its one path
        with pytest.raises(ValueError, match=f"no {'closed form' if method == 'exact' else method}"):
            moment_ratio(lp_norm(3.0), 2.0, 1.0, 2, Engine(method=method))


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


def _max_sum_40(rates, r) -> Decimal:
    """sum_{S != {}} (-1)^(|S|+1) (sum_{k in S} h_k)^(-r) at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(r)
        return sum((-1) ** (size + 1) * sum(map(Decimal, S)) ** -r
                   for size in range(1, len(rates) + 1)
                   for S in itertools.combinations(rates, size))


def _binomial_sum_40(n, r) -> Decimal:
    """The equal-rate sum, sum_k (-1)^(k+1) C(n, k) k^(-r), at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return sum((-1) ** (k + 1) * math.comb(n, k) * Decimal(k) ** -Decimal(r)
                   for k in range(1, n + 1))


# (norm or body maker, name): each norm the package knows the law of
EXACT_NORMS = [
    (lambda n: coordinate_norm(n - 1), "coord"),
    (lambda n: linf_norm(), "linf"),
    (lambda n: lp_norm(math.inf), "lp:inf"),
    (lambda n: l1_norm(), "l1"),
    (lambda n: lp_norm(1.0), "lp:1"),
    (lambda n: cube_body(1.3, n), "cube"),
    (lambda n: box_body([0.5, 1.0, 2.0, 1.5][:n]), "box"),
    (lambda n: cross_polytope(1.5, n), "cross-polytope"),
]
PQ = [(2.0, 1.0), (3.0, 1.5), (4.0, 0.5)]


class TestExactPath:
    """Norms whose law under the exponential measure is elementary carry
    their moments, and "auto" takes them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("make, name", EXACT_NORMS, ids=[name for _, name in EXACT_NORMS])
    def test_closed_form_agrees_with_monte_carlo(self, make, name, n):
        p, q = PQ[(n + len(name)) % len(PQ)]
        exact = moment_ratio(make(n), p, q, n)
        mc = moment_ratio(make(n), p, q, n, Engine(method="mc", samples=10**6, seed=23))
        assert (exact.moment_p.method, exact.samples, exact.ratio_se) == ("closed-form", 0, 0.0)
        assert abs(mc.ratio - exact.ratio) <= 4 * mc.ratio_se
        assert exact.holds and exact.ratio <= exact.bound + DET_TOL

    @pytest.mark.parametrize("r", [1e-9, 1e-4, 0.01, 0.5, 1.0, 2.5, 30.0])
    def test_binomial_sum_against_decimal_up_to_the_cap(self, r):
        law = linf_norm().moment_law
        for n in range(1, MAX_LAW_DIM + 1):
            got = law(n, r) / math.gamma(r + 1.0)
            assert abs(Decimal(got) / _binomial_sum_40(n, r) - 1) <= Decimal("1e-12"), n

    @pytest.mark.parametrize("n, r", [(3, 0.01), (3, 30.0), (6, 1e-4), (6, 2.5),
                                      (9, 0.5), (MAX_LAW_DIM, 1e-4)])
    def test_subset_sum_against_decimal(self, n, r):
        # near-equal rates cancel most; the law of a box gauge takes its radii
        rates = [1.0 + 0.1 * k for k in range(n)]
        got = gauge_norm(box_body(rates)).moment_law(n, r) / math.gamma(r + 1.0)
        assert abs(Decimal(got) / _max_sum_40(rates, r) - 1) <= Decimal("1e-12")

    def test_the_cap_is_pinned(self):
        assert MAX_LAW_DIM == 14
        assert linf_norm().moment_law(MAX_LAW_DIM + 1, 1.0) is None
        cube = cube_body(1.0, MAX_LAW_DIM + 1)
        assert gauge_norm(cube).moment_law(MAX_LAW_DIM + 1, 1.0) is None
        with pytest.raises(ValueError, match="no closed form"):
            moment_ratio(cube, 2.0, 1.0, MAX_LAW_DIM + 1, Engine(method="exact"))
        above = moment_ratio(linf_norm(), 2.0, 1.0, MAX_LAW_DIM + 1, Engine(samples=2000))
        assert (above.moment_p.method, above.samples) == ("mc(2000, 42)", 2000)

    def test_l1_law_is_the_gamma_ratio(self):
        for n in range(1, 5):
            for r in (0.5, 1.0, 2.5, 30.0):
                assert l1_norm().moment_law(n, r) == pytest.approx(
                    math.gamma(n + r) / math.gamma(n), rel=1e-14)
        assert gauge_norm(cross_polytope(2.0, 3)).moment_law(3, 1.5) == pytest.approx(
            l1_norm().moment_law(3, 1.5) * 2.0**-1.5, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (30.0, 1.0), (3.7, 0.25)])
    def test_coordinate_functional_is_the_constant(self, n, p, q):
        pair = moment_ratio(coordinate_norm(n - 1), p, q, n)
        rec = pair.to_record()
        assert pair.ratio == pair.bound == cpq(p, q)
        assert (rec["margin"], rec["verdict"], rec["tolerance"]) == (0.0, "holds", DET_TOL)

    @pytest.mark.parametrize("norm", [lp_norm(3.0), unconditional_lp_ball(3.0, 2),
                                      norm_ball(linf_norm(), 1.0, 2)],
                             ids=["lp3", "lp-ball", "norm-ball"])
    def test_exact_without_a_law_raises(self, norm):
        with pytest.raises(ValueError, match="no closed form for the moment ratio"):
            moment_ratio(norm, 2.0, 1.0, 2, Engine(method="exact"))

    def test_bodies_whose_gauge_has_no_law(self):
        cube = cube_body(1.0, 2)
        hand_built = UnconditionalBody(dim=2, kind="cube", params={"a": 1.0, "n": 2},
                                       gauge=cube.gauge, law=cube.law)
        zero_radius = box_body([1.0, 0.0])
        for body in (hand_built, zero_radius, unconditional_lp_ball(2.0, 2)):
            assert gauge_norm(body).moment_law is None

    def test_gauge_law_needs_the_body_dimension(self):
        assert gauge_norm(cube_body(1.0, 3)).moment_law(2, 1.0) is None
        assert gauge_norm(cross_polytope(1.0, 3)).moment_law(2, 1.0) is None

    @pytest.mark.parametrize("weights", [None, (2.0, 2.0, 2.0)], ids=["unit", "twos"])
    def test_l1_balls_of_equal_radii_have_the_cross_polytope_law(self, weights):
        # radii 2 and 1: the Gamma(n) law at either scale, and a ratio that
        # is the cross-polytope's to the bit
        ball = unconditional_lp_ball(1.0, 3, 2.0, weights)
        pair = moment_ratio(ball, 3.0, 1.0, 3)
        assert pair.moment_p.method == "closed-form"
        assert pair.ratio == moment_ratio(cross_polytope(2.0, 3), 3.0, 1.0, 3).ratio
        mc = moment_ratio(ball, 3.0, 1.0, 3, Engine(method="mc", samples=1_000_000, seed=4))
        assert abs(mc.ratio - pair.ratio) <= 4 * mc.ratio_se

    def test_l1_ball_of_unequal_radii_has_no_law(self):
        ball = unconditional_lp_ball(1.0, 3, 2.0, [1.0, 2.0, 2.0])
        assert gauge_norm(ball).moment_law is None
        assert moment_ratio(ball, 3.0, 1.0, 3, Engine(samples=2000)).moment_p.method == \
            "mc(2000, 42)"


class TestSharpnessMap:
    """The gauge of the box h = (1, A, A) approaches the coordinate
    functional as A grows: its ratio rises toward C(p, q) and stays below."""

    @pytest.mark.parametrize("p, q", [(30.0, 1.0), (4.0, 2.0), (2.0, 0.5)])
    def test_ratio_rises_toward_the_constant(self, p, q):
        ratios = [moment_ratio(box_body([1.0, A, A]), p, q, 3).ratio
                  for A in (1.0, 10.0, 100.0, 1e4)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 0 <= cpq(p, q) - ratios[-1] <= 1e-5 * cpq(p, q)

    def test_demo_values(self):
        got = [moment_ratio(box_body([1.0, A, A]), 30.0, 1.0, 3).ratio
               for A in (1.0, 10.0, 100.0, 1e4)]
        assert got == pytest.approx([6.814771150463926, 11.857143898608177,
                                     12.042411964585733, 12.04449682737553], rel=1e-14)
