import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sineq import bodies as bodies_module
from sineq import integrate as integrate_module
from sineq import verify as verify_module
from sineq.bodies import (
    ReinhardtBody,
    annulus_body,
    box_body,
    cross_polytope,
    cube_body,
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
from sineq.integrate import DET_TOL, Engine, NonFiniteIntegrandError, recheck_stream
from sineq.measures import (
    complex_gaussian,
    cylinder_measure,
    exp_strip_measure,
    exponential,
)
from sineq.verify import (
    DEFAULT_T_GRID,
    BodyStats,
    body_statistics,
    calibrate_cylinder,
    calibrate_strip,
    check_derivative_criterion,
    check_moment_criterion_exponential,
    check_moment_criterion_gaussian,
    check_tensorization,
    derivative_at_one,
    dilation_curve,
    full_check,
    sweep,
)

SQRT_2LN2 = 1.1774100225154747
LN2 = 0.6931471805599453
EXACT = Engine(method="exact")
DATA = Path(__file__).parent / "data"


@pytest.fixture
def mc_passes(monkeypatch) -> list:
    """Records (samples, seed, stream) and the result (n, means, cov) of
    every Monte Carlo pass, primary or recheck, in the order they run."""
    calls = []
    original = integrate_module.run_chunked

    def counted(measure, samples, seed, stream, *args, **kwargs):
        result = original(measure, samples, seed, stream, *args, **kwargs)
        calls.append(((samples, seed, stream), result))
        return result

    monkeypatch.setattr(integrate_module, "run_chunked", counted)
    return calls


class TestCalibration:
    def test_zero(self):
        assert calibrate_cylinder(0.0) == 0.0
        assert calibrate_strip(0.0) == 0.0

    def test_half(self):
        assert calibrate_cylinder(0.5) == pytest.approx(SQRT_2LN2, abs=1e-14)
        assert calibrate_strip(0.5) == pytest.approx(LN2, abs=1e-14)

    def test_round_trip(self):
        assert cylinder_measure(calibrate_cylinder(0.73), 2) == pytest.approx(
            0.73, abs=1e-12
        )
        assert exp_strip_measure(calibrate_strip(0.73)) == pytest.approx(
            0.73, abs=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_round_trip_property(self, m):
        assert cylinder_measure(calibrate_cylinder(m), 1) == pytest.approx(m, abs=1e-12)

    def test_full_measure_rejected(self):
        with pytest.raises(ValueError):
            calibrate_cylinder(1.0)
        with pytest.raises(ValueError):
            calibrate_strip(1.0)


class TestDerivativeAtOne:
    def test_half_measure_disc(self):
        est = derivative_at_one(cylinder_body(SQRT_2LN2, 1), engine=EXACT)
        assert est.value == pytest.approx(LN2, abs=1e-12)

    def test_full_space_is_stationary(self):
        est = derivative_at_one(cylinder_body(math.inf, 2), engine=EXACT)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_exponential_strip(self):
        est = derivative_at_one(strip_body(LN2, 1), exponential(1), EXACT)
        assert est.value == pytest.approx(0.34657359027997264, abs=1e-12)

    def test_mc_matches_closed(self):
        body = polydisc([1.2, 0.8])
        closed = derivative_at_one(body, engine=EXACT)
        mc = derivative_at_one(body, engine=Engine(method="mc", samples=200_000, seed=21))
        assert abs(mc.value - closed.value) <= 3.5 * mc.std_error
        assert mc.std_error > 0


class TestGaussianCriteria:
    def test_cylinder_self_comparison_slack_zero(self):
        rep = check_derivative_criterion(cylinder_body(1.3, 2), EXACT)
        assert abs(rep.slack) <= DET_TOL
        assert rep.verdict == "holds"

    def test_polydisc_strict(self):
        rep = check_derivative_criterion(polydisc([1.0, 1.0]), EXACT)
        assert rep.slack == pytest.approx(0.19297744810807002, abs=1e-12)
        assert rep.verdict == "holds"

    def test_moment_criterion_cylinder_equality(self):
        rep = check_moment_criterion_gaussian(cylinder_body(0.9, 3), EXACT)
        assert abs(rep.slack) <= 1e-10

    def test_moment_criterion_polydisc_closed(self):
        rep = check_moment_criterion_gaussian(polydisc([1.5, 2.0]), EXACT)
        assert rep.slack > 0
        assert rep.lhs.value == pytest.approx(rep.rhs.value - rep.slack, abs=1e-12)

    def test_empty_body_trivial(self):
        empty = custom_reinhardt(2, lambda r: np.zeros(r.shape[0], dtype=bool))
        rep = check_moment_criterion_gaussian(
            empty, Engine(method="mc", samples=20_000, seed=2), experimental=True
        )
        assert rep.verdict == "holds"
        assert rep.slack == 0.0

    def test_full_space_degenerate(self):
        rep = check_moment_criterion_gaussian(cylinder_body(math.inf, 2), EXACT)
        assert rep.verdict == "holds"
        assert "degenerate" in rep.note

    def test_lp_ball_mc_holds(self, fast_mc):
        body = reinhardt_lp_ball([1.0, 1.0], 1.0, 2.0)  # weighted l1 ball
        rep = check_derivative_criterion(body, fast_mc)
        assert rep.verdict == "holds"
        assert rep.slack >= -3 * rep.std_error

    def test_derivative_and_moment_slacks_agree(self, fast_mc):
        body = reinhardt_lp_ball([1.0, 0.7], 2.0, 1.5)
        stats = body_statistics(body, complex_gaussian(2), (), fast_mc)
        der = check_derivative_criterion(body, fast_mc, stats=stats)
        mom = check_moment_criterion_gaussian(body, fast_mc, stats=stats)
        assert der.slack == mom.slack
        assert der.std_error == mom.std_error

    def test_unvalidated_body_rejected(self):
        with pytest.raises(ValueError):
            check_derivative_criterion(annulus_body(1.0, 2.0), EXACT)

    def test_annulus_violates_under_experimental_flag(self):
        # outside the supported class the inequality genuinely fails; the
        # certification protocol must reproduce it under fresh seeds
        rep = check_moment_criterion_gaussian(
            annulus_body(1.0, 2.0),
            Engine(method="mc", samples=30_000, seed=17),
            experimental=True,
        )
        assert rep.verdict == "violated"


class TestExponentialCriteria:
    def test_strip_equality(self):
        rep = check_moment_criterion_exponential(strip_body(0.8, 2), EXACT)
        assert abs(rep.slack) <= 1e-10

    def test_cube_strict_closed_and_mc(self):
        closed = check_moment_criterion_exponential(cube_body(1.0, 2), EXACT)
        assert closed.slack == pytest.approx(0.15880030493364083, abs=1e-12)
        mc = check_moment_criterion_exponential(
            cube_body(1.0, 2), Engine(method="mc", samples=200_000, seed=23)
        )
        assert abs(mc.slack - closed.slack) <= 3.5 * mc.std_error

    def test_l1_ball_mc(self, fast_mc):
        rep = check_moment_criterion_exponential(cross_polytope(2.0, 2), fast_mc)
        assert rep.verdict == "holds"

    def test_entropy_form_attached_and_consistent(self):
        rep = check_moment_criterion_exponential(cube_body(1.0, 2), EXACT)
        ef = rep.entropy_form
        assert ef is not None
        assert ef.slack == pytest.approx(rep.slack, abs=1e-12)
        m = (1 - math.exp(-1)) ** 2
        assert ef.lhs == pytest.approx(-(1 - m) * math.log(1 - m), abs=1e-12)


class TestDilationCurve:
    def test_cylinder_zero_margins(self):
        rep = dilation_curve(cylinder_body(1.1, 2), t_grid=(0.5, 1, 1.5, 2, 3),
                             engine=EXACT)
        for p in rep.points:
            assert abs(p.margin) <= 1e-10
            assert p.verdict == "holds"

    def test_polydisc_exact_margins(self):
        rep = dilation_curve(polydisc([1.0, 1.0]), t_grid=(1, 1.5, 2, 3), engine=EXACT)
        m1 = (1 - math.exp(-0.5)) ** 2
        for p in rep.points:
            body_truth = (1 - math.exp(-p.t * p.t / 2)) ** 2
            ref_truth = 1 - (1 - m1) ** (p.t * p.t)
            assert p.value == pytest.approx(body_truth, abs=1e-12)
            assert p.reference == pytest.approx(ref_truth, abs=1e-12)
            assert p.margin >= 0

    def test_polydisc_reversed_direction(self):
        # the t = 1 calibration anchor is always added to the grid
        rep = dilation_curve(polydisc([1.0, 1.0]), t_grid=(0.5, 0.8), engine=EXACT)
        assert [p.t for p in rep.points] == [0.5, 0.8, 1.0]
        for p in rep.points:
            if p.t < 1.0:
                assert p.direction == "<="
                assert p.margin > 0
            assert p.verdict == "holds"
        assert "derived" in rep.note

    def test_t_one_is_calibrated_exactly_under_mc(self, fast_mc):
        rep = dilation_curve(reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5),
                             t_grid=(1.0, 2.0), engine=fast_mc)
        p1 = [p for p in rep.points if p.t == 1.0][0]
        assert p1.margin == pytest.approx(0.0, abs=1e-15)
        assert p1.margin_se == pytest.approx(0.0, abs=1e-12)

    def test_mc_margins_within_band_of_exact(self):
        body = polydisc([0.9, 1.4])
        exact = dilation_curve(body, t_grid=(1.5, 2.0), engine=EXACT)
        mc = dilation_curve(body, t_grid=(1.5, 2.0),
                            engine=Engine(method="mc", samples=150_000, seed=31))
        for pe, pm in zip(exact.points, mc.points):
            assert abs(pm.margin - pe.margin) <= 3.5 * pm.margin_se

    def test_curve_monotone_in_t(self, fast_mc):
        rep = dilation_curve(reinhardt_lp_ball([1.0, 1.0], 3.0, 1.8),
                             t_grid=(0.5, 1, 1.5, 2, 3), engine=fast_mc)
        vals = [p.value for p in rep.points]
        ses = [p.std_error for p in rep.points]
        for (a, sa), (b, sb) in zip(zip(vals, ses), zip(vals[1:], ses[1:])):
            assert b >= a - 3 * math.hypot(sa, sb)

    def test_positive_grid_required(self):
        with pytest.raises(ValueError):
            dilation_curve(polydisc([1.0]), t_grid=(0.0, 1.0), engine=EXACT)


class TestTensorization:
    def test_cylinder_product_is_polydisc_check(self):
        rep = check_tensorization([cylinder_body(1.0, 1), cylinder_body(2.0, 1)], EXACT)
        assert rep.verdict == "holds"
        for part in rep.parts:
            assert abs(part.slack) <= 1e-10  # factors are their own comparison sets
        assert rep.combined.slack > 0

    def test_cylinder_times_full_space(self):
        rep = check_tensorization(
            [cylinder_body(1.0, 1), cylinder_body(math.inf, 1)], EXACT
        )
        assert rep.verdict == "holds"

    def test_two_polydiscs_mc(self):
        rep = check_tensorization(
            [polydisc([1.0, 1.5]), polydisc([0.8])],
            Engine(method="mc", samples=100_000, seed=37),
        )
        assert rep.verdict == "holds"


class TestFullCheckAndSweep:
    def test_full_check_shares_verdicts(self, fast_mc):
        rep = full_check(polydisc([1.0, 1.0]), fast_mc, t_grid=(1, 1.5, 2))
        assert rep.verdict == "holds"
        assert rep.derivative.slack == rep.moment.slack
        assert rep.min_margin >= -1e-12

    def test_sweep_polydiscs(self):
        rep = sweep("polydisc", 6, [1, 2, 3], Engine(method="mc", samples=50_000, seed=41),
                    t_grid=(1, 1.5, 2))
        assert rep.holds == 6
        assert rep.violated == 0

    def test_sweep_unconditional(self):
        rep = sweep("lp-ball", 4, [1, 2], Engine(method="mc", samples=50_000, seed=43),
                    t_grid=(0.5, 1, 2))
        assert rep.holds == 4
        assert rep.certified_violations == 0

    def test_sweep_rows_reproducible(self):
        e = Engine(method="mc", samples=30_000, seed=47)
        a = sweep("cube", 3, [2], e, t_grid=(1, 2))
        b = sweep("cube", 3, [2], e, t_grid=(1, 2))
        assert a.rows == b.rows

    def test_sweep_rows_are_the_body_records(self):
        rep = sweep("cube", 2, [2], Engine(method="mc", samples=20_000, seed=47), t_grid=(1, 2))
        records = rep.to_records()
        assert records[:-1] == list(rep.rows) and records[-1]["kind"] == "fuzz-summary"
        assert [r["kind"] for r in rep.rows] == ["fuzz-body"] * 2
        assert rep.min_margin == min(r["margin"] for r in rep.rows)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep("torus", 3, [2])

    def test_sweep_without_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            sweep("cube", 3, [])


class TestBodyStatistics:
    def test_closed_matches_mc_covariances_sanity(self):
        body = polydisc([1.0, 1.3])
        closed = body_statistics(body, complex_gaussian(2), (1.5,), EXACT)
        mc = body_statistics(body, complex_gaussian(2), (1.5,),
                             Engine(method="mc", samples=200_000, seed=53))
        assert abs(mc.m - closed.m) <= 4 * math.sqrt(mc.cov[mc.idx1, mc.idx1])
        assert abs(mc.moment - closed.moment) <= 4 * math.sqrt(mc.cov[-1, -1])

    def test_exact_engine_requires_closed_form(self):
        with pytest.raises(ValueError):
            body_statistics(reinhardt_lp_ball([1.0], 2.0), engine=EXACT)

    def test_quadrature_engine_rejected(self):
        with pytest.raises(ValueError):
            body_statistics(polydisc([1.0]), engine=Engine(method="quadrature"))

    def test_box_and_strip_closed_forms(self):
        st_ = body_statistics(strip_body(1.0, 2), engine=EXACT)
        assert st_.moment == pytest.approx(0.896361676485673, abs=1e-12)
        bx = body_statistics(box_body([0.5, 1.5]), engine=EXACT)
        w1, w2 = 1 - math.exp(-0.5), 1 - math.exp(-1.5)
        assert bx.m == pytest.approx(w1 * w2, abs=1e-12)


    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64, np.float32],
                             ids=lambda d: d.__name__)
    def test_predicate_columns_do_not_depend_on_the_dtype(self, monkeypatch, dtype):
        # a shadow may answer with 0/1 integers or floats instead of bools;
        # the columns of a body without a gauge hold the same masks
        columns = []
        estimate = verify_module._integ.estimate

        def kept(engine, measure, cols, *args, **kwargs):
            columns.append(cols)
            return estimate(engine, measure, cols, *args, **kwargs)

        monkeypatch.setattr(verify_module._integ, "estimate", kept)
        shadow = lambda r: (r * r).sum(axis=1) + r[:, 0] * r[:, 1] <= 2.25  # noqa: E731
        engine = Engine(method="mc", samples=40_000, seed=41)
        ref = body_statistics(custom_reinhardt(2, shadow), None, DEFAULT_T_GRID, engine)
        got = body_statistics(custom_reinhardt(2, lambda r: shadow(r).astype(dtype)), None,
                              DEFAULT_T_GRID, engine)
        r = np.random.default_rng(4).exponential(size=(5000, 2))
        want, have = (integrate_module._evaluate(c, r, len(DEFAULT_T_GRID) + 1) for c in columns)
        assert want.inside.dtype == have.inside.dtype == bool
        assert 0 < want.inside.mean() < 1
        assert have.inside.tobytes() == want.inside.tobytes()
        assert ref.means.tobytes() == got.means.tobytes()
        assert ref.cov.tobytes() == got.cov.tobytes()

class TestMarginSigmas:
    def test_deterministic_paths(self):
        rep = dilation_curve(cylinder_body(1.1, 2), t_grid=(1, 2), engine=EXACT)
        for p in rep.points:
            assert p.margin_se == 0.0 and math.isfinite(p.margin)

    def test_mc_path_scales_margin(self, fast_mc):
        rep = dilation_curve(reinhardt_lp_ball([1.0, 1.0], 2.0, 1.5),
                             t_grid=(2.0,), engine=fast_mc)
        p = [q for q in rep.points if q.t == 2.0][0]
        # the margin is measured in units of a positive, finite error
        assert 0.0 < p.margin_se < math.inf and math.isfinite(p.margin / p.margin_se)


class TestSharedRechecks:
    def test_full_check_runs_each_recheck_pass_once(self, mc_passes):
        # every criterion and four curve points fail; all share 3 passes
        rep = full_check(annulus_body(1.0, 2.0), Engine(method="mc", samples=20_000, seed=7),
                         experimental=True)
        assert rep.verdict == "violated"
        assert len(mc_passes) == 4
        golden = (DATA / "annulus_full_check_mc20000_seed7.jsonl").read_text().splitlines()
        assert [json.dumps(r, sort_keys=True) for r in rep.to_records()] == golden

    def test_standalone_checks_recheck_on_their_own(self, mc_passes):
        body = annulus_body(1.0, 2.0)
        engine = Engine(method="mc", samples=20_000, seed=7)
        assert check_derivative_criterion(body, engine, experimental=True).verdict == "violated"
        assert len(mc_passes) == 4
        mc_passes.clear()
        assert dilation_curve(body, engine=engine, experimental=True).verdict == "violated"
        assert len(mc_passes) == 4

    @pytest.mark.parametrize("body", [
        annulus_body(1.0, 2.0),
        reinhardt_lp_ball([1.0, 0.7], 2.0, 1.5),
        box_body([0.5, 1.5]),
        cross_polytope(2.0, 3),
    ], ids=lambda b: b.kind)
    @pytest.mark.parametrize("seed, samples", [(3, 2000), (5, 20_000), (8, 140_000)])
    def test_criterion_slack_same_from_any_grid(self, body, seed, samples):
        # rechecks estimate on the curve grid; the criteria must not notice
        engine = Engine(method="mc", samples=samples, seed=seed)
        grid = DEFAULT_T_GRID if isinstance(body, ReinhardtBody) else (0.5, 1.0, 2.0)
        alone = body_statistics(body, None, (), engine)
        full = body_statistics(body, None, grid, engine)
        a = check_derivative_criterion(body, engine, alone, experimental=True)
        b = check_derivative_criterion(body, engine, full, experimental=True)
        assert (a.slack, a.std_error, a.verdict) == (b.slack, b.std_error, b.verdict)


class TestRechecksBelongToThePass:
    """A check given ``stats`` rechecks that pass: its seed, twice its
    samples, its grid, whatever engine the check gets, once for all checks."""

    BODY = annulus_body(1.0, 2.0)
    ENGINE = Engine(method="mc", samples=20_000, seed=7)
    RECHECKS = [(40_000, 7, k << 62) for k in (1, 2, 3)]

    @pytest.mark.parametrize("engine", [None, Engine(method="mc", samples=1000, seed=3)],
                             ids=["no-engine", "other-engine"])
    @pytest.mark.parametrize("check", [check_derivative_criterion, check_moment_criterion_gaussian,
                                       dilation_curve])
    def test_rechecks_draw_at_the_stats_engine(self, mc_passes, check, engine):
        stats = body_statistics(self.BODY, None, DEFAULT_T_GRID, self.ENGINE)
        mc_passes.clear()
        rep = check(self.BODY, engine=engine, stats=stats, experimental=True)
        assert rep.verdict == "violated"
        assert [key for key, _ in mc_passes] == self.RECHECKS

    def test_three_checks_on_one_stats_run_three_rechecks(self, mc_passes):
        stats = body_statistics(self.BODY, None, DEFAULT_T_GRID, self.ENGINE)
        reports = [check_derivative_criterion(self.BODY, self.ENGINE, stats, experimental=True),
                   check_moment_criterion_gaussian(self.BODY, self.ENGINE, stats,
                                                   experimental=True),
                   dilation_curve(self.BODY, engine=self.ENGINE, stats=stats, experimental=True)]
        assert [r.verdict for r in reports] == ["violated"] * 3
        assert reports[0].note == "reproduced by 3 recheck passes at doubled samples"
        assert [key for key, _ in mc_passes] == [(20_000, 7, 0)] + self.RECHECKS

    def test_a_recheck_of_body_stats_is_body_stats(self, mc_passes):
        stats = body_statistics(self.BODY, None, DEFAULT_T_GRID, self.ENGINE)
        again = stats.recheck(2)
        assert stats.recheck(2).means.tobytes() == again.means.tobytes()
        assert stats.recheck(2) is again
        assert len(mc_passes) == 2  # the primary and one recheck, drawn once
        assert isinstance(again, BodyStats) and again.redraw is None
        assert (again.t_grid, again.body_desc, again.seed, again.samples, again.stream) == (
            stats.t_grid, stats.body_desc, 7, 40_000, 2 << 62)
        assert again.method == "mc(40000, 7)"


class TestGivenStats:
    """A check given ``stats`` refuses a pass over another body or measure,
    naming both, and validates its body at the seed of ``stats``."""

    OTHER = "'polydisc:r=2.0,2.0' under complex-gaussian\\(2\\)"

    @pytest.mark.parametrize("check", [check_derivative_criterion, check_moment_criterion_gaussian,
                                       dilation_curve])
    def test_stats_of_another_body_are_refused(self, check):
        stats = body_statistics(polydisc([2.0, 2.0]), engine=EXACT)
        with pytest.raises(ValueError, match=rf"^stats of {self.OTHER} do not belong to "
                                             r"'polydisc:r=1.0,1.0' under complex-gaussian\(2\)$"):
            check(polydisc([1.0, 1.0]), stats=stats)

    def test_stats_of_another_dimension_are_refused(self):
        stats = body_statistics(polydisc([2.0, 2.0]), engine=EXACT)
        with pytest.raises(ValueError, match=rf"^stats of {self.OTHER} do not belong to "
                                             r"'polydisc:r=1.0' under complex-gaussian\(1\)$"):
            dilation_curve(polydisc([1.0]), stats=stats)

    def test_exponential_criterion_refuses_stats_of_another_body(self):
        stats = body_statistics(box_body([0.5, 1.0]), engine=EXACT)
        with pytest.raises(ValueError, match=r"^stats of .*strip:p=1.0,n=1' under exponential\(2\) "
                                             r"do not belong to .*strip:p=1.5,n=1' under"):
            check_moment_criterion_exponential(box_body([0.5, 1.5]), stats=stats)

    def test_body_is_validated_at_the_stats_seed(self, monkeypatch):
        seeds = []
        validate = bodies_module.validate_body

        def spy(body, rng_seed):
            seeds.append(rng_seed)
            return validate(body, rng_seed=rng_seed)

        monkeypatch.setattr(bodies_module, "validate_body", spy)
        body = custom_reinhardt(2, lambda r: (r * r).sum(axis=1) <= 2.0)
        stats = body_statistics(body, None, DEFAULT_T_GRID,
                                Engine(method="mc", samples=2000, seed=5))
        for check in (check_derivative_criterion, dilation_curve):
            assert check(body, engine=Engine(seed=9), stats=stats).verdict == "holds"
        assert seeds == [5, 5]


class TestCurveAtOne:
    def test_t_one_holds_without_rechecks_on_random_polydiscs(self, mc_passes):
        # a t = 1 reference computed through log1p/expm1 gives 11 of these
        # 300 a margin of -1 ulp with a 0 std error, which starts rechecks
        rng = np.random.default_rng(2026)
        for i in range(300):
            body = polydisc(rng.uniform(0.3, 2.5, size=2 + i % 3))
            rep = dilation_curve(body, t_grid=(1.0,),
                                 engine=Engine(method="mc", samples=20_000, seed=1000 + i))
            (p,) = rep.points
            assert (p.margin, p.margin_se, p.reference) == (0.0, 0.0, p.value)
            assert p.verdict == "holds"
        assert len(mc_passes) == 300


class TestNonFiniteNorm:
    def test_nan_norm_ball_aborts(self):
        ball = norm_ball(lambda m: np.full(m.shape[0], np.nan), 1.0, 2)
        with pytest.raises(NonFiniteIntegrandError):
            full_check(ball, Engine(method="mc", samples=20_000), experimental=True)


class TestClassRefusal:
    """A check validates an unvalidated body itself, unless it runs
    experimentally, and refuses one outside its class."""

    MC = Engine(method="mc", samples=20_000, seed=7)

    def test_hand_built_upward_set_refused(self):
        upward = ReinhardtBody(dim=1, kind="custom", params={"n": 1},
                               base=lambda m: m[:, 0] >= 1.0)
        assert not upward.validated
        for check in (full_check, dilation_curve, check_derivative_criterion,
                      check_moment_criterion_gaussian):
            with pytest.raises(ValueError, match=r"^body 'custom:n=1' is not a complete Reinhardt "
                                                 r"set \(downward-closure violation: .*\); pass "
                                                 r"experimental=True \(--experimental\) to check"):
                check(upward, self.MC)
        rep = full_check(upward, self.MC, experimental=True)
        assert rep.verdict == "violated"

    def test_misnamed_body_refused(self):
        # its records would read "polydisc:r=1.0", a body it is not
        disc = ReinhardtBody(dim=1, kind="polydisc", params={"r": (1.0,)},
                             gauge=lambda m: m[:, 0] / 2.0)
        with pytest.raises(ValueError, match=r"^body 'polydisc:r=1\.0' is not the body its "
                                             r"descriptor names \(.*\); pass experimental=True"):
            full_check(disc, self.MC)

    def test_valid_custom_shadow_runs_without_experimental(self):
        shadow = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.5)
        assert not shadow.validated
        rep = full_check(shadow, self.MC)
        assert rep.verdict == "holds"
        assert rep.to_records() == full_check(shadow, self.MC, experimental=True).to_records()

    def test_only_an_unvalidated_body_is_validated(self, monkeypatch):
        calls = []

        def counted(body, *args, **kwargs):
            calls.append(body.descriptor())
            return validate_body(body, *args, **kwargs)

        monkeypatch.setattr(bodies_module, "validate_body", counted)
        constructed = [
            polydisc([1.0, 1.5]), cylinder_body(1.0, 2), reinhardt_lp_ball([1.0, 0.7], 0.8, 1.5),
            reinhardt_lp_ball([1.0, 2.0], math.inf),
            product(polydisc([1.0]), cylinder_body(0.5, 1)), polydisc([1.0, 2.0]).dilate(1.5),
            strip_body(0.7, 2), cube_body(1.0, 2), box_body([0.5, 1.5]),
            unconditional_lp_ball(3.0, 2, 1.2), cross_polytope(1.5, 2),
        ]
        engine = Engine(method="mc", samples=5000, seed=3)
        for body in constructed:
            assert body.validated
            assert full_check(body, engine).verdict == "holds"
        assert calls == []
        full_check(custom_reinhardt(2, lambda r: r.max(axis=1) <= 1.0), engine)
        assert calls == ["custom:n=2"]


class TestNonFiniteGauge:
    def test_nan_gauge_aborts_and_names_its_point(self):
        engine = Engine(method="mc", samples=20_000, seed=7)
        for gauge in (lambda m: np.full(m.shape[0], np.nan),
                      lambda m: np.where(m[:, 0] > 0.5, np.nan, m[:, 0])):
            body = ReinhardtBody(dim=1, kind="custom", params={"n": 1}, gauge=gauge)
            with pytest.raises(NonFiniteIntegrandError, match=r"^gauge returned nan at \[\d"):
                full_check(body, engine)
        # +inf is the gauge of a zero radius wherever that coordinate is not 0
        body = polydisc([1.0, 0.0])
        assert body.gauge(np.ones((1, 2))).tolist() == [math.inf]
        assert full_check(body, engine).derivative.note == "degenerate: measure 0"


class TestRecheckStreams:
    ANNULUS_ENGINE = Engine(method="mc", samples=20_000, seed=7)

    def test_recheck_keys_are_distinct_and_reserved(self, mc_passes):
        rep = full_check(annulus_body(1.0, 2.0), self.ANNULUS_ENGINE, experimental=True)
        assert rep.verdict == "violated"
        assert len(mc_passes) == 4
        golden = (DATA / "annulus_full_check_mc20000_seed7.jsonl").read_text().splitlines()
        assert [json.dumps(r, sort_keys=True) for r in rep.to_records()] == golden
        keys = [(seed, stream) for (_, seed, stream), _ in mc_passes]
        assert keys[0] == (7, 0)
        assert len(set(keys)) == 4
        for k, ((samples, seed, stream), _) in enumerate(mc_passes[1:], start=1):
            assert (seed, samples) == (7, 40_000)
            assert stream == recheck_stream(0, k) == k << 62

    def test_recheck_does_not_alias_a_primary_pass(self, mc_passes):
        # recheck 1 used to be seed 8 on the primary stream: the primary
        # pass of seed 8 at 40,000 samples
        body = annulus_body(1.0, 2.0)
        full_check(body, self.ANNULUS_ENGINE, experimental=True)
        _, (_, means, cov) = mc_passes[1]
        neighbour = body_statistics(body, None, DEFAULT_T_GRID,
                                    Engine(method="mc", samples=40_000, seed=8))
        assert not np.array_equal(means, neighbour.means)
        assert not np.array_equal(cov, neighbour.cov)

    def test_sweep_and_tensorization_streams_stay_primary(self):
        # primary streams are engine.stream + offset; a recheck stream sits
        # above 2**62 for every k and keeps the primary stream in its low bits
        for stream in (0, 1, 199, 2**40):
            rechecks = {recheck_stream(stream, k) for k in (1, 2, 3)}
            assert len(rechecks) == 3
            assert all(s >= 2**62 and s % 2**62 == stream for s in rechecks)


class TestProtocolEntry:
    ANNULUS_ENGINE = Engine(method="mc", samples=20_000, seed=7)

    @pytest.mark.parametrize("stream, aliased", [(-1, (2**62 - 1, 3)), (2**62 + 5, (5, 1))])
    def test_out_of_range_primary_stream_rejected(self, stream, aliased):
        # such a stream would draw exactly the recheck stream of another run
        from sineq.integrate import SampleStream

        if stream < 0:
            # masked to 64 bits it would be that recheck stream, so
            # SampleStream refuses it, as Engine does
            assert stream % 2**64 == recheck_stream(*aliased)
            with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*64\)"):
                SampleStream(7, stream)
        else:
            assert SampleStream(7, stream).stream_index == recheck_stream(*aliased)
        with pytest.raises(ValueError, match="reserved for rechecks"):
            full_check(polydisc([1.0, 1.0]), Engine(method="mc", samples=2000, seed=7,
                                                    stream=stream))

    def test_curve_points_keep_the_certification_note(self):
        rep = full_check(annulus_body(1.0, 2.0), self.ANNULUS_ENGINE, experimental=True)
        violated = [p for p in rep.curve.points if p.verdict == "violated"]
        assert len(violated) == 4
        assert {p.note for p in violated} == {"reproduced by 3 recheck passes at doubled samples"}
        assert {p.note for p in rep.curve.points if p.verdict == "holds"} == {""}
        golden = (DATA / "annulus_full_check_mc20000_seed7.jsonl").read_text().splitlines()
        assert [json.dumps(r, sort_keys=True) for r in rep.to_records()] == golden


class TestDegenerateCurve:
    """Measure 0 and measure 1 bodies skip the protocol: every check holds
    and the reports say why."""

    @pytest.mark.parametrize("body, note, value", [
        (polydisc([0.0, 0.0]), "degenerate: measure 0", 0.0),
        (cylinder_body(math.inf, 2), "degenerate: measure 1 (dilation invariant)", 1.0),
    ], ids=["measure-0", "measure-1"])
    @pytest.mark.parametrize("engine", [EXACT, Engine(method="mc", samples=5000, seed=3)],
                             ids=["exact", "mc"])
    def test_full_check_holds_with_degenerate_note(self, body, note, value, engine, mc_passes):
        rep = full_check(body, engine, (0.5, 1.0, 2.0))
        assert rep.verdict == "holds"
        assert rep.derivative.note == rep.moment.note == note
        assert rep.curve.note.startswith(note)
        assert [p.verdict for p in rep.curve.points] == ["holds"] * 3
        assert [(p.value, p.reference, p.margin, p.margin_se) for p in rep.curve.points] == [
            (value, value, 0.0, 0.0)] * 3
        assert len(mc_passes) == (engine.method == "mc")  # no recheck pass
        assert {r["tolerance"] for r in rep.to_records()} == {DET_TOL}



@pytest.mark.parametrize("call, error, match", [
    (lambda: check_moment_criterion_gaussian(cube_body(1.0, 2), EXACT), TypeError,
     "applies to ReinhardtBody bodies"),
    (lambda: check_moment_criterion_exponential(polydisc([1.0]), EXACT), TypeError,
     "applies to UnconditionalBody bodies"),
    (lambda: sweep("polydisc", 0, [1]), ValueError, "count must be >= 1"),
], ids=["gaussian-criterion-of-unconditional", "exponential-criterion-of-reinhardt",
        "sweep-count-0"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
