import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sineq.bodies import (
    cube_body,
    custom_reinhardt,
    cylinder_body,
    polydisc,
    reinhardt_lp_ball,
    unconditional_lp_ball,
)
from sineq.entropy import (
    MonotoneRadialFunction,
    StepFunction,
    TailMeasure1D,
    check_lemma_1d,
    check_lemma_multidim,
    check_subadditivity,
    complement_indicator,
    entropy,
    inverse_tail,
)
from sineq.integrate import Engine, NonFiniteIntegrandError
from sineq.measures import xlnx

HALF_LN2 = 0.34657359027997264  # -(1/2) ln(1/2)
SQRT_2LN2 = 1.1774100225154747

RADIAL = TailMeasure1D.radial_mu()
EXP1D = TailMeasure1D.exponential()


def random_step(rng, max_jumps=6) -> StepFunction:
    m = int(rng.integers(0, max_jumps + 1))
    jumps = np.sort(rng.uniform(0.01, 5.0, size=m))
    jumps = np.unique(jumps)
    base = 0.0 if rng.random() < 0.4 else float(rng.uniform(0, 2))
    values = base + np.concatenate([[0.0], np.cumsum(rng.exponential(size=len(jumps)))])
    return StepFunction(tuple(jumps), tuple(values))


def random_measure(rng) -> TailMeasure1D:
    u = rng.random()
    if u < 0.3:
        return RADIAL
    if u < 0.6:
        return EXP1D
    k = int(rng.integers(1, 8))
    locs = np.sort(rng.uniform(0, 6, size=k))
    locs = np.unique(locs)
    masses = rng.dirichlet(np.ones(len(locs)))
    return TailMeasure1D.discrete(locs, masses)


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction((1.0, 0.5), (0, 1, 2))  # jumps not increasing
        with pytest.raises(ValueError):
            StepFunction((1.0,), (1.0, 0.5))  # decreasing values
        with pytest.raises(ValueError):
            StepFunction((1.0,), (-0.1, 0.5))  # negative
        with pytest.raises(ValueError):
            StepFunction((1.0,), (0.0, 1.0, 2.0))  # length mismatch
        # NaN passes every comparison, and f is bounded with jumps in [0, inf)
        for jumps, values in [((0.5,), (0.0, math.nan)), ((0.5,), (0.0, math.inf)),
                              ((math.nan,), (0.0, 1.0)), ((math.inf,), (0.0, 1.0))]:
            with pytest.raises(ValueError, match="must be finite"):
                StepFunction(jumps, values)

    def test_evaluation(self):
        f = StepFunction((1.0, 2.0), (0.0, 1.0, 3.0))
        assert np.array_equal(f(np.array([0.5, 1.0, 1.5, 2.0, 10.0])),
                              [0.0, 1.0, 1.0, 3.0, 3.0])


class TestTailMeasure1D:
    @pytest.mark.parametrize("make, message", [
        (lambda: TailMeasure1D("exponential-1d", ((0.0, 1.0),)), "carry no atoms"),
        (lambda: TailMeasure1D("gamma"), "unknown measure kind 'gamma'"),
        (lambda: TailMeasure1D.discrete([], []), "at least one atom"),
        (lambda: TailMeasure1D.discrete([-1.0, 1.0], [0.5, 0.5]), "nonnegative and distinct"),
        (lambda: TailMeasure1D.discrete([0.0, 1.0], [0.5, 0.6]), "sum to 1"),
        (lambda: TailMeasure1D.discrete([0.0, 1.0], [math.nan, 1.0]), "must be finite"),
        (lambda: TailMeasure1D.discrete([0.0, math.nan], [0.5, 0.5]), "must be finite"),
        (lambda: TailMeasure1D.discrete([0.0, math.inf], [0.5, 0.5]), "must be finite"),
    ], ids=["atoms-on-a-factor", "unknown-kind", "no-atom", "negative-location",
            "masses-off-one", "nan-mass", "nan-location", "inf-location"])
    def test_bad_atoms_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestEntropy:
    def test_package_attribute_is_the_module(self):
        import sineq

        assert inspect.ismodule(sineq.entropy)
        assert sineq.entropy.entropy is entropy

    def test_constant_is_zero(self):
        f = StepFunction((), (2.7,))
        assert entropy(f, RADIAL) == pytest.approx(0.0, abs=1e-15)
        assert entropy(f, EXP1D) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_of_half_measure_set(self):
        # Ent(1_A) = -mu(A) ln mu(A)
        f = StepFunction.tail_indicator(math.log(2))
        assert entropy(f, EXP1D) == pytest.approx(HALF_LN2, abs=1e-14)

    def test_discrete_hand_example(self):
        mu = TailMeasure1D.discrete([0.0, 1.0], [0.5, 0.5])
        f = StepFunction((0.5,), (1.0, 2.0))
        assert entropy(f, mu) == pytest.approx(0.08494951839769871, abs=1e-14)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = random_step(rng)
            mu = random_measure(rng)
            c = float(rng.uniform(0.1, 10))
            scaled = StepFunction(f.jumps, tuple(c * v for v in f.values))
            assert entropy(scaled, mu) == pytest.approx(
                c * entropy(f, mu), rel=1e-12, abs=1e-12
            )

    def test_nonnegative_on_random_fixtures(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert entropy(random_step(rng), random_measure(rng)) >= -1e-12

    def test_callable_quadrature_path_matches_oracle(self):
        f = lambda x: 1.0 - np.exp(-x)
        got = entropy(f, EXP1D)
        mean, _ = quad(lambda x: (1 - math.exp(-x)) * math.exp(-x), 0, np.inf)
        flnf, _ = quad(
            lambda x: (1 - math.exp(-x)) * math.log(max(1 - math.exp(-x), 1e-300))
            * math.exp(-x), 0, np.inf,
        )
        assert got == pytest.approx(flnf - mean * math.log(mean), abs=1e-8)

    def test_callable_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy(lambda x: x - 1.0, EXP1D)


class TestInverseTail:
    def test_point_mass(self):
        mu = TailMeasure1D.discrete([1.0], [1.0])
        assert inverse_tail(mu, 0.5) == 1.0
        assert inverse_tail(mu, 1.0) == 0.0
        assert inverse_tail(mu, 0.0) == 1.0

    def test_radial_closed_form(self):
        assert inverse_tail(RADIAL, math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_closed_form(self):
        assert inverse_tail(EXP1D, 0.25) == pytest.approx(math.log(4), abs=1e-12)

    def test_zero_tail_target_is_infinite_for_full_support(self):
        assert inverse_tail(RADIAL, 0.0) == math.inf

    def test_nonincreasing_and_tail_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = random_measure(rng)
            ys = np.sort(rng.uniform(0, 1, size=8))
            hs = [inverse_tail(mu, float(y)) for y in ys]
            assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
            for y, h in zip(ys, hs):
                if math.isfinite(h):
                    assert mu.tail(h) <= y + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_tail(RADIAL, 1.5)


class TestLemma1d:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_tail_indicator_equality_exponential(self, s):
        f = StepFunction.tail_indicator(-math.log(s))
        rep = check_lemma_1d(f, EXP1D)
        assert rep.lhs == pytest.approx(-s * math.log(s), abs=1e-12)
        assert rep.rhs == pytest.approx(rep.lhs, abs=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_tail_indicator_equality_radial(self, s):
        f = StepFunction.tail_indicator(math.sqrt(-2 * math.log(s)))
        rep = check_lemma_1d(f, RADIAL)
        assert rep.lhs == pytest.approx(-s * math.log(s), abs=1e-12)
        assert rep.rhs == pytest.approx(rep.lhs, abs=1e-12)

    @pytest.mark.parametrize("mu", [RADIAL, EXP1D], ids=["radial", "exponential"])
    def test_tail_indicator_slack_is_exactly_zero(self, mu):
        # both sides read the one tail s at a: Ent = -s ln s = the right side
        for a in [k / 50 for k in range(1, 401)] + [10.0, 20.0, 30.0, 37.0]:
            rep = check_lemma_1d(StepFunction.tail_indicator(a), mu)
            assert rep.slack == 0.0, a
            assert rep.lhs == -xlnx(mu.tail(a)), a

    def test_discrete_measure_reads_the_atoms(self):
        # a step function against atoms is the callable path: f at the atoms
        mu = TailMeasure1D.discrete([0.0, 0.4, 1.0, 3.0], [0.3, 0.2, 0.3, 0.2])
        f = StepFunction((0.5, 2.0), (0.0, 1.0, 2.0))
        step, call = check_lemma_1d(f, mu), check_lemma_1d(lambda x: f(x), mu)
        assert (step.lhs, step.rhs, step.method) == (call.lhs, call.rhs, call.method)
        assert entropy(f, mu) == entropy(lambda x: f(x), mu) == step.lhs

    def test_constant_function(self):
        rep = check_lemma_1d(StepFunction((), (2.0,)), EXP1D)
        assert rep.lhs == pytest.approx(0.0, abs=1e-15)
        assert rep.rhs >= -1e-12

    def test_discrete_top_atom_gives_infinite_rhs(self):
        mu = TailMeasure1D.discrete([0.0, 1.0], [0.5, 0.5])
        rep = check_lemma_1d(StepFunction((0.5,), (0.0, 1.0)), mu)
        assert rep.rhs == math.inf
        assert rep.slack == math.inf
        assert rep.holds

    def test_discrete_f_zero_at_top_atom_stays_finite(self):
        mu = TailMeasure1D.discrete([0.0, 1.0], [0.5, 0.5])
        rep = check_lemma_1d(StepFunction((), (0.0,)), mu)
        assert rep.rhs == 0.0 and rep.lhs == 0.0

    def test_rhs_matches_quadrature_oracle(self):
        f = StepFunction((0.4, 1.3), (0.2, 0.9, 1.4))
        rep = check_lemma_1d(f, EXP1D)
        # piecewise adaptive quadrature of -f(x)(1 + ln tail(x)) dmu,
        # tail = exp(-x), split at the jumps so quad sees smooth pieces
        bounds = [0.0, 0.4, 1.3, np.inf]
        oracle = sum(
            v * quad(lambda x: -(1.0 + -x) * math.exp(-x), lo, hi)[0]
            for v, lo, hi in zip(f.values, bounds, bounds[1:])
        )
        assert rep.rhs == pytest.approx(oracle, abs=1e-9)

    def test_property_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rep = check_lemma_1d(random_step(rng), random_measure(rng))
            assert rep.slack >= -1e-12

    def test_callable_path_smooth_function(self):
        rep = check_lemma_1d(lambda x: 1.0 - np.exp(-0.7 * x), EXP1D)
        assert rep.slack >= -1e-6
        assert rep.method.startswith("quadrature")

    def test_callable_path_matches_step_oracle(self):
        f = StepFunction((0.8,), (0.0, 1.0))
        exact = check_lemma_1d(f, EXP1D)
        viaq = check_lemma_1d(lambda x: f(x).astype(float), EXP1D)
        # indicators degrade under quadrature; coarse agreement only
        assert viaq.rhs == pytest.approx(exact.rhs, abs=0.05)

    def test_callable_rejects_decreasing(self):
        with pytest.raises(ValueError):
            check_lemma_1d(lambda x: np.exp(-x), EXP1D)

    @pytest.mark.parametrize("check, message", [
        (check_lemma_1d, "f must be finite and nonnegative"),
        (entropy, "entropy requires a finite nonnegative function"),
    ], ids=["lemma", "entropy"])
    @pytest.mark.parametrize("mu", [
        EXP1D, TailMeasure1D.discrete([0.0, 1.0, 2.0], [0.3, 0.3, 0.4]),
    ], ids=["factor", "discrete"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_callable_raises(self, check, message, mu, bad):
        # NaN and inf pass the sign and monotonicity comparisons; past x = 1
        # they reach nodes of the graded rule and the atom at 2
        with pytest.raises(ValueError, match=message):
            check(lambda x: np.where(x > 1, bad, 0.5), mu)

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_step_function_takes_auto_and_exact(self, method):
        f = StepFunction((0.8,), (0.0, 1.0))
        rep = check_lemma_1d(f, EXP1D, Engine(method=method))
        assert rep == check_lemma_1d(f, EXP1D)
        assert rep.method == "closed-form"

    @pytest.mark.parametrize("f, mu, method", [
        (StepFunction((0.8,), (0.0, 1.0)), EXP1D, "mc"),
        (StepFunction((0.8,), (0.0, 1.0)), EXP1D, "quadrature"),
        (lambda x: 1.0 - np.exp(-x), TailMeasure1D.discrete([0.0, 1.0], [0.5, 0.5]), "quadrature"),
        (lambda x: 1.0 - np.exp(-x), RADIAL, "exact"),
        (lambda x: 1.0 - np.exp(-x), RADIAL, "mc"),
    ], ids=["step-mc", "step-quadrature", "discrete-quadrature", "callable-exact",
            "callable-mc"])
    def test_forcing_a_path_the_lemma_lacks_raises(self, f, mu, method):
        with pytest.raises(ValueError, match=f"1-D entropy lemma has no {method} path"):
            check_lemma_1d(f, mu, Engine(method=method))

    def test_callable_takes_forced_quadrature(self):
        f = lambda x: 1.0 - np.exp(-0.7 * x)  # noqa: E731
        assert check_lemma_1d(f, EXP1D, Engine(method="quadrature")) == check_lemma_1d(f, EXP1D)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=4.0), st.floats(min_value=0.0, max_value=3.0))
    def test_two_step_slack_nonnegative(self, a, extra):
        f = StepFunction((a,), (extra, extra + 1.0))
        for mu in (RADIAL, EXP1D):
            assert check_lemma_1d(f, mu).slack >= -1e-12


class TestLemmaMultidim:
    def test_constant_function(self):
        g = MonotoneRadialFunction(2, 1.0, lambda r: np.ones(r.shape[0]))
        rep = check_lemma_multidim(g, 2, engine=Engine(method="quadrature", order=16))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-10)

    def test_cylinder_complement_equality(self):
        g = complement_indicator(cylinder_body(SQRT_2LN2, 1))
        rep = check_lemma_multidim(g, 1, engine=Engine(method="exact"))
        assert rep.lhs == pytest.approx(HALF_LN2, abs=1e-12)
        assert rep.rhs == pytest.approx(HALF_LN2, abs=1e-12)

    def test_polydisc_complement_strict(self):
        g = complement_indicator(polydisc([1.0, 1.0]))
        rep = check_lemma_multidim(g, 2, engine=Engine(method="exact"))
        assert rep.lhs == pytest.approx(0.14216249448715612, abs=1e-12)
        assert rep.rhs == pytest.approx(0.23865121854119115, abs=1e-12)
        assert rep.slack > 0.09

    def test_mc_agrees_with_exact(self):
        g = complement_indicator(polydisc([1.0, 1.0]))
        exact = check_lemma_multidim(g, 2, engine=Engine(method="exact"))
        mc = check_lemma_multidim(g, 2, engine=Engine(method="mc", samples=200_000, seed=5))
        assert abs(mc.slack - exact.slack) <= 3.5 * mc.std_error

    def test_exponential_analogue_on_cube(self):
        g = complement_indicator(cube_body(1.0, 2))
        rep = check_lemma_multidim(g, 2, "exponential", Engine(method="exact"))
        m = (1 - math.exp(-1)) ** 2
        s = 2 * (1 - 2 / math.e) * (1 - math.exp(-1))
        assert rep.lhs == pytest.approx(-(1 - m) * math.log(1 - m), abs=1e-12)
        assert rep.rhs == pytest.approx(2 * m - s, abs=1e-12)

    def test_exponential_mc_on_lp_ball(self):
        g = complement_indicator(unconditional_lp_ball(2.0, 2, 1.5))
        rep = check_lemma_multidim(g, 2, "exponential",
                                   Engine(method="mc", samples=150_000, seed=6))
        assert rep.status == "ok"
        assert rep.slack >= -3 * rep.std_error

    def test_smooth_g_quadrature(self):
        g = MonotoneRadialFunction(
            2, 1.0, lambda r: (1 - np.exp(-r)).prod(axis=1)
        )
        rep = check_lemma_multidim(g, 2, engine=Engine(method="quadrature", order=48))
        assert rep.status == "ok"
        assert rep.slack >= -1e-9
        # the lhs, rhs and slack of the tensor rule, to the bit
        assert (repr(rep.lhs), repr(rep.rhs), repr(rep.slack)) == (
            "0.042988988024754815", "0.2037059902361199", "0.1607170022113651")
        assert (rep.method, rep.samples) == ("quadrature(48)", 48**2)

    def test_quadrature_evaluates_g_once(self):
        nodes = []

        def f(r):
            nodes.append(r.shape[0])
            return (1 - np.exp(-r)).prod(axis=1)

        g = MonotoneRadialFunction(3, 1.0, f)
        check_lemma_multidim(g, 3, engine=Engine(method="quadrature", order=16))
        # two calls check the hypotheses on 1000 points; one reads the nodes
        assert nodes == [1000, 1000, 16**3]

    def test_invalid_hypothesis_reported(self):
        g = MonotoneRadialFunction(2, 1.0, lambda r: np.exp(-r.sum(axis=1)))
        with pytest.raises(ValueError, match="^invalid input for entropy check: decreasing"):
            check_lemma_multidim(g, 2, engine=Engine(samples=1000))

    @pytest.mark.parametrize("value, problem", [(-0.5, "negative values sampled"),
                                                (2.0, "declared bound exceeded")])
    def test_g_outside_its_range_reported(self, value, problem):
        g = MonotoneRadialFunction(2, 1.0, lambda r: np.full(r.shape[0], value))
        with pytest.raises(ValueError, match=f"^invalid input for entropy check: {problem}$"):
            check_lemma_multidim(g, 2, engine=Engine(samples=1000))

    def test_exact_needs_box_body(self):
        g = complement_indicator(reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5))
        with pytest.raises(ValueError):
            check_lemma_multidim(g, 2, engine=Engine(method="exact"))


class TestSubadditivity:
    def test_product_indicator_equality_closed(self):
        # upper-orthant complements of coordinate boxes give exact equality
        g = complement_indicator(polydisc([1.0, 1.3]))
        rep = check_subadditivity(g, 2, engine=Engine(method="exact"))
        assert rep.slack >= 0.0
        assert rep.rhs == pytest.approx(rep.lhs + rep.slack, abs=1e-14)

    def test_single_coordinate_dependence_equality(self):
        g = complement_indicator(cylinder_body(1.0, 2))
        rep = check_subadditivity(g, 2, engine=Engine(method="exact"))
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_constant_function_zero_both_sides(self):
        g = MonotoneRadialFunction(2, 1.0, lambda r: np.full(r.shape[0], 0.5))
        rep = check_subadditivity(g, 2, engine=Engine(samples=20_000, seed=4))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-10)

    def test_mc_exact_section_matches_closed(self):
        g = complement_indicator(polydisc([1.0, 1.3]))
        closed = check_subadditivity(g, 2, engine=Engine(method="exact"))
        mc = check_subadditivity(g, 2, engine=Engine(method="mc", samples=60_000, seed=8))
        assert abs(mc.slack - closed.slack) <= 3.5 * mc.std_error

    def test_mc_bisection_matches_closed(self):
        # the polydisc shadow wrapped as a custom body has no section, so
        # its slices are bisected
        body = polydisc([1.0, 1.3])
        closed = check_subadditivity(complement_indicator(body), 2, engine=Engine(method="exact"))
        g = complement_indicator(custom_reinhardt(2, body.base))
        mc = check_subadditivity(g, 2, engine=Engine(method="mc", samples=60_000, seed=8))
        assert abs(mc.slack - closed.slack) <= 3.5 * mc.std_error

    def test_lp_ball_section_path(self):
        g = complement_indicator(reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5))
        rep = check_subadditivity(g, 2, engine=Engine(samples=30_000, seed=9))
        assert rep.status == "ok"
        assert rep.slack >= -3 * rep.std_error

    def test_lp_ball_bisection_path(self):
        ball = reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5)
        engine = Engine(samples=30_000, seed=9)
        rep = check_subadditivity(complement_indicator(custom_reinhardt(2, ball.base)), 2,
                                  engine=engine)
        exact = check_subadditivity(complement_indicator(ball), 2, engine=engine)
        assert rep.status == "ok"
        assert rep.slack >= -3 * rep.std_error
        # the same draws: the section and the bisection agree far below the noise
        assert rep.slack == pytest.approx(exact.slack, abs=1e-12)

    def test_exponential_factor(self):
        g = complement_indicator(cube_body(0.8, 2))
        rep = check_subadditivity(g, 2, factor="exponential-1d",
                                  engine=Engine(method="exact"))
        assert rep.slack >= -1e-12

    def test_smooth_product_function_equality(self):
        # product functions make both sides equal: slices inherit the
        # homogeneity factor, so the inner quadrature path must land on
        # slack ~ 0 within its noise
        g = MonotoneRadialFunction(
            2, 1.0, lambda r: (1 - np.exp(-r)).prod(axis=1)
        )
        rep = check_subadditivity(g, 2, engine=Engine(samples=20_000, seed=10, order=48))
        assert rep.status == "ok"
        assert abs(rep.slack) <= 3 * rep.std_error + 1e-6


class TestCertifiedEntropyVerdicts:
    """The entropy checks take their verdicts from the shared protocol."""

    CYLINDER = "cylinder:R=1,n=1"

    @staticmethod
    def indicator_pass(slack: float, se: float) -> tuple[list[float], np.ndarray]:
        """Means and covariance of the columns (g ln g, g, g * weight) of the
        cylinder's complement indicator g at which the multidimensional
        lemma's slack reads ``slack`` with standard error ``se``."""
        mean_g = math.exp(-0.5)  # 1 - measure of {|z| <= 1}
        return [0.0, mean_g, slack - xlnx(mean_g)], np.diag([0.0, 0.0, se * se])

    def test_excursion_is_rechecked(self, monkeypatch, choose_passes):
        # the equality case reads -3.09 sigma (slack -0.0197) on its primary
        # pass; the three recheck passes, at twice the samples, read -0.40,
        # +1.25 and -0.15 sigma
        from sineq import integrate
        from sineq.bodies import parse_descriptor

        se = 0.0197 / 3.09
        calls = choose_passes({0: self.indicator_pass(-0.0197, se), **{
            k << 62: self.indicator_pass(z * se / math.sqrt(2), se / math.sqrt(2))
            for k, z in enumerate([-0.40, 1.25, -0.15], start=1)}})
        seen = []
        rule = integrate.within_tolerance

        def recording(margin, se):
            seen.append(margin / se)
            return rule(margin, se)

        monkeypatch.setattr(integrate, "within_tolerance", recording)
        g = complement_indicator(parse_descriptor(self.CYLINDER, "reinhardt"))
        rep = check_lemma_multidim(g, 1, engine=Engine(method="mc", samples=20_000, seed=5))
        assert calls == [(20_000, 5, 0, 1)] + [(40_000, 5, k << 62, 1) for k in (1, 2, 3)]
        assert [round(z, 2) for z in seen] == [-3.09, -0.4, 1.25, -0.15]
        assert rep.slack == pytest.approx(-0.0197, abs=1e-12)
        assert rep.std_error == pytest.approx(se, rel=1e-12)
        assert (rep.verdict, rep.holds) == ("holds", True)
        assert rep.verdict_note == "initial 3-sigma excursion not reproduced"

    def test_exact_verdicts_need_no_rechecks(self):
        g = complement_indicator(polydisc([1.0, 1.0]))
        for rep in (check_lemma_multidim(g, 2, engine=Engine(method="exact")),
                    check_subadditivity(g, 2, engine=Engine(method="exact")),
                    check_lemma_1d(StepFunction.tail_indicator(0.7), EXP1D)):
            assert (rep.verdict, rep.verdict_note) == ("holds", "")

    def test_invalid_input_has_no_verdict(self):
        # a g that breaks its hypotheses gets no report, so no verdict
        g = MonotoneRadialFunction(2, 1.0, lambda r: np.exp(-r.sum(axis=1)))
        for check in (check_lemma_multidim, check_subadditivity):
            with pytest.raises(ValueError, match="decreasing along a coordinatewise increase"):
                check(g, 2, engine=Engine(samples=1000))


class TestNonFiniteG:
    def test_nan_g_aborts_on_every_path(self):
        # NaN on a band of r_0 around the third order-64 quadrature node
        # passes the sampled hypothesis checks, whose 1,000 points at seed 42
        # miss it; 20 of the 20,000 Monte Carlo points and the node fall in
        # it, and the pass names the NaN and its point
        node = math.sqrt(2.0 * np.polynomial.laguerre.laggauss(64)[0][2])

        def nan_on_a_band(r):
            return np.where(np.abs(r[:, 0] - node) < 1e-3, np.nan,
                            np.minimum(1, 0.1 * r.sum(axis=1)))

        g = MonotoneRadialFunction(2, 1.0, nan_on_a_band)
        assert g.hypothesis_violations(rng_seed=42) == []
        mc, quadrature = Engine(method="mc", samples=20_000), Engine(method="quadrature")
        for run in (lambda: check_lemma_multidim(g, 2, engine=mc),
                    lambda: check_subadditivity(g, 2, engine=mc),
                    lambda: check_lemma_multidim(g, 2, engine=quadrature)):
            with pytest.raises(NonFiniteIntegrandError, match=r"^integrand returned nan at \[\d"):
                run()

    def test_nan_g_the_probe_sees_is_invalid_input(self, monkeypatch):
        # NaN beyond |r|_1 = 6: 148 of the probe's 1,000 far points at seed 42
        # are NaN, so both checks refuse g before any pass
        from sineq import integrate

        def nan_far_out(r):
            return np.where(r.sum(axis=1) > 6, np.nan, np.minimum(1, 0.1 * r.sum(axis=1)))

        passes = []
        monkeypatch.setattr(integrate, "run_chunked", lambda *args: passes.append(args))
        g = MonotoneRadialFunction(2, 1.0, nan_far_out)
        assert g.hypothesis_violations(rng_seed=42) == ["non-finite values sampled"]
        for check in (check_lemma_multidim, check_subadditivity):
            with pytest.raises(ValueError, match="^invalid input for entropy check: "
                                                 "non-finite values sampled$"):
                check(g, 2, engine=Engine(method="mc", samples=20_000))
        assert passes == []


class TestUnsupportedPaths:
    def test_subadditivity_rejects_quadrature(self):
        g = complement_indicator(polydisc([1.0, 1.3]))
        with pytest.raises(ValueError, match="quadrature"):
            check_subadditivity(g, 2, engine=Engine(method="quadrature"))

    @pytest.mark.parametrize("body", [cylinder_body(1.0, 2), polydisc([1.0, 1.5])],
                             ids=["cylinder", "polydisc"])
    def test_multidim_refuses_quadrature_on_an_indicator(self, body):
        # the tensor rule errs by >= 1/(2*order) on an indicator, far above DET_TOL
        with pytest.raises(ValueError, match="no quadrature path for this g"):
            check_lemma_multidim(complement_indicator(body), 2,
                                 engine=Engine(method="quadrature"))

    def test_subadditivity_exact_needs_box(self):
        g = complement_indicator(reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5))
        with pytest.raises(ValueError, match="closed form"):
            check_subadditivity(g, 2, engine=Engine(method="exact"))


@pytest.mark.parametrize("call, match", [
    (lambda: check_lemma_multidim(complement_indicator(polydisc([1.0])), 1, "radial-mu"),
     "measure must be complex-gaussian or exponential"),
], ids=["multidim-factor-tag"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
