import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sineq.bodies import (
    Law,
    annulus_body,
    box_body,
    check_downward_closed,
    check_midpoint_convex,
    cross_polytope,
    cube_body,
    custom_reinhardt,
    closed_forms,
    cylinder_body,
    interval_radii,
    norm_ball,
    parse_descriptor,
    polydisc,
    product,
    reinhardt_lp_ball,
    strip_body,
    unconditional_lp_ball,
    validate_body,
)
from sineq.bodies import NonFiniteIntegrandError, ReinhardtBody, UnconditionalBody, require_finite
from sineq.integrate import Engine, SampleMoments, Sublevels, measure_estimate
from sineq.measures import RADIAL_FACTOR, MeasureKind, complex_gaussian, moduli
from sineq.moments import lp_norm


def random_complex_points(rng, count, n, scale=2.0):
    return rng.standard_normal((count, 2 * n)) * scale


class TestReinhardtMembership:
    def test_origin_inside_polydisc(self):
        assert polydisc([1.0, 2.0]).contains(np.zeros(4))

    def test_first_radius_exceeded(self):
        z = np.array([1.5, 0.0, 0.0, 0.0])
        assert not polydisc([1.0, 2.0]).contains(z)

    def test_lp_ball_strict_interior(self):
        z = np.array([0.7, 0.0, 0.0, 0.7])  # |z1|^2 + |z2|^2 = 0.98
        assert reinhardt_lp_ball([1.0, 1.0], 2.0, 1.0).contains(z)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            polydisc([1.0]).contains(np.zeros(4))

    def test_phase_invariance(self, rng):
        body = reinhardt_lp_ball([1.0, 0.7], 1.5, 1.3)
        z = random_complex_points(rng, 500, 2)
        theta = rng.uniform(0, 2 * math.pi, size=(500, 2))
        rotated = np.empty_like(z)
        for k in range(2):
            c, s = np.cos(theta[:, k]), np.sin(theta[:, k])
            rotated[:, 2 * k] = c * z[:, 2 * k] - s * z[:, 2 * k + 1]
            rotated[:, 2 * k + 1] = s * z[:, 2 * k] + c * z[:, 2 * k + 1]
        assert np.array_equal(body.contains(z), body.contains(rotated))

    def test_shrinking_moduli_keeps_membership(self, rng):
        body = polydisc([1.2, 0.9, 1.7])
        z = random_complex_points(rng, 2000, 3)
        inside = body.contains(z)
        shrunk = z * rng.uniform(0, 1, size=(2000, 1))
        assert body.contains(shrunk)[inside].all()

    def test_moduli_layout(self):
        z = np.array([3.0, 4.0, 0.0, 1.0])
        assert np.allclose(moduli(z), [5.0, 1.0])


class TestDilation:
    def test_polydisc_params_scale(self):
        d = polydisc([1.0, 2.0]).dilate(2.0)
        assert d.kind == "polydisc"
        assert d.params["r"] == (2.0, 4.0)

    def test_cylinder_params_scale(self):
        d = cylinder_body(1.0, 2).dilate(3.0)
        assert d.kind == "cylinder"
        assert d.params["R"] == 3.0

    def test_identity(self, rng):
        body = reinhardt_lp_ball([1.0, 1.0], 2.5, 1.1)
        z = random_complex_points(rng, 1000, 2)
        assert np.array_equal(body.dilate(1.0).contains(z), body.contains(z))

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_semigroup_law(self, s, t):
        rng = np.random.default_rng(11)
        body = polydisc([1.0, 1.4])
        z = random_complex_points(rng, 400, 2)
        lhs = body.dilate(s).dilate(t).contains(z)
        rhs = body.dilate(s * t).contains(z)
        assert np.array_equal(lhs, rhs)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            polydisc([1.0]).dilate(0.0)
        with pytest.raises(ValueError):
            polydisc([1.0]).dilate(-2.0)

    def test_strip_halfwidth_scales(self):
        d = strip_body(0.5, 2).dilate(2.0)
        assert d.params["p"] == 1.0


class TestProduct:
    def test_cylinders_make_polydisc(self, rng):
        prod = product(cylinder_body(1.0, 1), cylinder_body(2.0, 1))
        disc = polydisc([1.0, 2.0])
        z = random_complex_points(rng, 10_000, 2)
        assert np.array_equal(prod.contains(z), disc.contains(z))

    def test_strips_make_box(self, rng):
        box = product(strip_body(0.5, 1), strip_body(1.5, 1))
        x = rng.standard_normal((5000, 2)) * 1.5
        expected = (np.abs(x[:, 0]) <= 0.5) & (np.abs(x[:, 1]) <= 1.5)
        assert np.array_equal(box.contains(x), expected)

    def test_membership_is_conjunction(self, rng):
        b1, b2 = polydisc([1.0]), polydisc([0.7, 1.3])
        prod = product(b1, b2)
        z = random_complex_points(rng, 3000, 3)
        expected = b1.contains(z[:, :2]) & b2.contains(z[:, 2:])
        assert np.array_equal(prod.contains(z), expected)

    def test_family_mismatch(self):
        with pytest.raises(TypeError):
            product(polydisc([1.0]), strip_body(1.0, 1))

    def test_products_flatten(self):
        p = product(product(polydisc([1.0]), polydisc([1.0])), polydisc([1.0]))
        assert len(p.params["parts"]) == 3
        assert p.dim == 3


class TestDownwardClosure:
    def test_polydisc_clean(self):
        assert check_downward_closed(polydisc([1.0, 2.0]), rng_seed=3).ok

    def test_lp_ball_clean(self):
        body = reinhardt_lp_ball([1.0, 0.5], 0.8, 1.0)  # p < 1 still in class
        assert check_downward_closed(body, rng_seed=3).ok

    def test_upward_set_violates(self):
        upward = custom_reinhardt(2, lambda m: m[:, 0] >= 1.0)
        report = check_downward_closed(upward, rng_seed=3)
        assert not report.ok
        assert report.violation is not None
        member, shrunk = report.violation
        assert member[0] >= 1.0 and shrunk[0] < 1.0

    def test_annulus_violates(self):
        assert not check_downward_closed(annulus_body(1.0, 2.0), rng_seed=3).ok

    def test_custom_starts_unvalidated(self):
        body = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.0)
        assert not body.validated
        assert check_downward_closed(body, rng_seed=3).ok


class TestContains:
    def test_point_dims(self):
        # a Reinhardt body takes points of C^n as 2n interleaved reals, an
        # unconditional body points of R^n; any other width raises
        assert polydisc([1.0, 2.0, 3.0]).contains(np.zeros((5, 6))).shape == (5,)
        assert cube_body(1.0, 3).contains(np.zeros((5, 3))).shape == (5,)
        with pytest.raises(ValueError, match=r"expected shape \(m, 6\)"):
            polydisc([1.0, 2.0, 3.0]).contains(np.zeros((5, 3)))
        with pytest.raises(ValueError, match=r"expected shape \(m, 3\)"):
            cube_body(1.0, 3).contains(np.zeros((5, 6)))


class TestUnconditional:
    @pytest.mark.parametrize(
        "body",
        [
            cube_body(1.0, 3),
            cross_polytope(1.5, 2),
            unconditional_lp_ball(3.0, 2, 1.2, [1.0, 0.5]),
            box_body([0.5, 1.5, 2.5]),
            strip_body(0.8, 2),
            # a base that is not even in x: contains reads |x|, so membership
            # is sign-flip invariant all the same
            UnconditionalBody(dim=2, kind="custom", params={"n": 2},
                              base=lambda m: m[:, 0] < 0.5, validated=False),
        ],
    )
    def test_sign_flip_invariance(self, body, rng):
        x = rng.standard_normal((4000, body.dim)) * 2.0
        signs = rng.choice([-1.0, 1.0], size=x.shape)
        inside = body.contains(x)
        assert inside.any() and not inside.all()
        assert np.array_equal(inside, body.contains(signs * x))

    @pytest.mark.parametrize(
        "body",
        [
            cube_body(1.0, 3),
            cross_polytope(1.5, 2),
            unconditional_lp_ball(1.0, 3, 2.0),
            box_body([0.5, 1.5]),
        ],
    )
    def test_midpoint_convexity(self, body):
        assert check_midpoint_convex(body, samples=10_000, rng_seed=5)

    def test_lp_ball_requires_convex_exponent(self):
        with pytest.raises(ValueError):
            unconditional_lp_ball(0.5, 2)


class TestConstructorsFailLoudly:
    """A NaN parameter makes every comparison False, so a body built with
    one would read as empty or as the whole space; constructors reject it,
    and a dimension below 1."""

    @pytest.mark.parametrize("make", [
        lambda: polydisc([math.nan, 1.0]),
        lambda: cylinder_body(math.nan, 2),
        lambda: strip_body(math.nan, 2),
        lambda: cube_body(math.nan, 2),
        lambda: box_body([1.0, math.nan]),
        lambda: unconditional_lp_ball(2.0, 2, 1.0, [math.nan, 1.0]),
        lambda: reinhardt_lp_ball([1.0, math.nan], 2.0),
    ], ids=["polydisc", "cylinder", "strip", "cube", "box", "unconditional-lp",
            "reinhardt-lp"])
    def test_nan_parameter_rejected(self, make):
        with pytest.raises(ValueError, match="nan|NaN"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: cube_body(1.0, 0),
        lambda: cross_polytope(1.0, 0),
        lambda: unconditional_lp_ball(2.0, 0),
        lambda: reinhardt_lp_ball([], 2.0),
        lambda: custom_reinhardt(0, lambda m: m[:, 0] >= 1.0),
    ], ids=["cube", "cross-polytope", "unconditional-lp", "reinhardt-lp", "custom"])
    def test_zero_dimension_rejected(self, make):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            make()

    def test_infinite_half_width_is_a_strip(self):
        body = parse_descriptor("box:a=1,inf", "unconditional")
        assert interval_radii(body) == (1.0, math.inf)
        assert body.radial_member(np.array([[0.5, 1e300], [1.5, 0.0]])).tolist() == [True, False]
        assert interval_radii(cylinder_body(math.inf, 2)) == (math.inf, math.inf)


class TestIntervalRadii:
    def test_polydisc(self):
        assert interval_radii(polydisc([1.0, 2.0])) == (1.0, 2.0)

    def test_cylinder_pads_with_inf(self):
        assert interval_radii(cylinder_body(1.5, 3)) == (1.5, math.inf, math.inf)

    def test_product_concatenates(self):
        p = product(strip_body(0.5, 1), strip_body(1.5, 1))
        assert interval_radii(p) == (0.5, 1.5)

    def test_lp_ball_has_none(self):
        assert interval_radii(reinhardt_lp_ball([1.0], 2.0)) is None

    def test_dilates_scale_the_radii(self):
        p = product(strip_body(0.5, 1), cube_body(1.5, 2)).dilate(1.3)
        assert interval_radii(p) == (0.5 * 1.3, 1.5 * 1.3, 1.5 * 1.3)
        # the dilated radii are the dilated parameters, bit for bit
        d = polydisc([0.7, 2.1]).dilate(0.3)
        assert interval_radii(d) == d.params["r"]
        assert interval_radii(cylinder_body(1.5, 3).dilate(2.0)) == (3.0, math.inf, math.inf)

    @pytest.mark.parametrize("body", [
        reinhardt_lp_ball([1.0, 2.0], math.inf),
        unconditional_lp_ball(math.inf, 2),
        cross_polytope(1.0, 2),
        norm_ball(lambda m: np.abs(m).max(axis=1), 1.0, 2),
        custom_reinhardt(2, lambda r: (r <= 1.0).all(axis=1)),
        product(polydisc([1.0]), custom_reinhardt(1, lambda r: r[:, 0] <= 1.0)),
        product(strip_body(1.0, 1), cross_polytope(1.0, 2)).dilate(2.0),
    ], ids=["reinhardt-linf", "unconditional-linf", "cross-polytope", "norm-ball", "custom",
            "product-custom", "product-cross-polytope"])
    def test_non_boxes_have_none(self, body):
        # several of these are boxes or hold one as a part, but only the
        # box constructors grant the radii
        assert interval_radii(body) is None

    def test_kind_label_grants_no_closed_form(self):
        # a disc of radius 2 labelled "polydisc" with the parameters of the
        # unit disc: auto runs Monte Carlo, not the unit disc's closed form
        body = ReinhardtBody(dim=1, kind="polydisc", params={"r": (1.0,)},
                             gauge=lambda m: m[:, 0] / 2.0)
        est = measure_estimate(body, complex_gaussian(1), Engine(samples=20_000, seed=3))
        assert est.method == "mc(20000, 3)"
        assert abs(est.value - -math.expm1(-2.0)) <= 4 * est.std_error


class TestLaw:
    def test_constructors_set_the_law(self):
        assert polydisc([1.0, 2.0]).law == Law((1.0, 2.0), math.inf)
        assert strip_body(0.5, 2).law == Law((0.5, math.inf))
        assert cross_polytope(2.0, 3).law == Law((2.0, 2.0, 2.0), 1.0)
        assert unconditional_lp_ball(3.0, 2, 1.5, [0.5, 2.0]).law == Law((3.0, 0.75), 3.0)
        assert reinhardt_lp_ball([1.0, 2.0], 0.5).law == Law((1.0, 0.5), 0.5)
        for body in (reinhardt_lp_ball([1.0], math.inf), annulus_body(0.5, 1.0),
                     custom_reinhardt(1, lambda r: r[:, 0] <= 1.0),
                     norm_ball(lambda m: m[:, 0], 1.0, 1)):
            assert body.law is None

    def test_hand_built_law_is_not_trusted(self):
        # a disc of radius 2 given the unit disc's law: no closed form
        # reads that law, before or after the body is validated
        body = ReinhardtBody(dim=1, kind="x", params={"n": 1},
                             gauge=lambda m: m[:, 0] / 2.0, law=polydisc([1.0]).law)
        measure = complex_gaussian(1)
        for b in (body, validate_body(body)):
            assert b.law is None and closed_forms(b, RADIAL_FACTOR) is None
            est = measure_estimate(b, measure, Engine(samples=20_000, seed=3))
            assert est.method == "mc(20000, 3)"
            assert abs(est.value - -math.expm1(-2.0)) <= 4 * est.std_error
            with pytest.raises(ValueError, match="no closed form"):
                measure_estimate(b, measure, Engine(method="exact"))

    @pytest.mark.parametrize("body", [
        polydisc([0.7, 1.3]),
        cube_body(1.1, 3),
        product(strip_body(0.5, 1), cube_body(1.5, 1).dilate(2.0), strip_body(2.0, 1)),
    ], ids=["polydisc", "cube", "product"])
    def test_a_replaced_predicate_keeps_the_law(self, body):
        # a tracer swaps the predicate for a spy that records its calls
        calls = []
        spy = replace(body, base=lambda m: calls.append(m) or body.base(m))
        assert spy.law == body.law is not None
        measure, grid = MeasureKind(body.measure_tag, body.dim), (0.5, 1.0, 2.0)
        exact = Engine(method="exact")
        assert closed_forms(spy, measure.factor, grid) == closed_forms(body, measure.factor, grid)
        assert measure_estimate(spy, measure, exact) == measure_estimate(body, measure, exact)
        assert calls == []

    def test_a_product_of_boxes_joins_the_radii(self):
        p = product(polydisc([1.0, 2.0]), cylinder_body(1.5, 2))
        assert p.law == Law((1.0, 2.0, 1.5, math.inf), math.inf)
        assert product(polydisc([1.0]), p.dilate(2.0)).law == Law((1.0, 2.0, 4.0, 3.0, math.inf))

    @pytest.mark.parametrize("other", [
        unconditional_lp_ball(2.0, 2), cross_polytope(1.0, 2),
        norm_ball(lambda m: m.max(axis=1), 1.0, 2),
    ], ids=["lp-ball", "cross-polytope", "norm-ball"])
    def test_a_product_with_a_part_that_is_not_a_box_has_no_law(self, other):
        assert product(cube_body(1.0, 1), other).law is None
        assert product(other, strip_body(1.0, 1)).dilate(2.0).law is None

    @pytest.mark.parametrize("t", [0.3, 1.7, 2.0 / 3.0, 1e-3, 123.456])
    def test_a_dilate_has_the_radii_of_its_parameters(self, t):
        # bit for bit: the law scales each radius as dilate scales the
        # parameter it came from (TestIntervalRadii covers the polydisc)
        for body, key in ((cylinder_body(1.3, 1), "R"), (strip_body(0.9, 1), "p"),
                          (cube_body(1.1, 1), "a"), (cross_polytope(1.9, 1), "scale")):
            d = body.dilate(t)
            assert d.law.radii == (d.params[key],)
            assert d.law.p == body.law.p
        d = cross_polytope(1.9, 3).dilate(t)
        assert d.law == cross_polytope(d.params["scale"], 3).law


class TestDescriptors:
    @pytest.mark.parametrize(
        "body",
        [
            polydisc([1.0, 2.5]),
            cylinder_body(1.5, 2),
            reinhardt_lp_ball([1.0, 0.5], 2.0, 1.3),
            annulus_body(1.0, 2.0),
        ],
    )
    def test_reinhardt_round_trip(self, body, rng):
        parsed = parse_descriptor(body.descriptor(), "reinhardt")
        assert parsed.descriptor() == body.descriptor()
        z = random_complex_points(rng, 500, body.dim)
        assert np.array_equal(parsed.contains(z), body.contains(z))

    @pytest.mark.parametrize(
        "body",
        [
            strip_body(0.7, 2),
            cube_body(1.0, 3),
            cross_polytope(1.5, 2),
            unconditional_lp_ball(3.0, 2, 1.2, [1.0, 0.5]),
            product(strip_body(0.5, 1), strip_body(1.5, 1)),
        ],
    )
    def test_unconditional_round_trip(self, body, rng):
        parsed = parse_descriptor(body.descriptor(), "unconditional")
        assert parsed.descriptor() == body.descriptor()
        x = rng.standard_normal((500, body.dim)) * 2
        assert np.array_equal(parsed.contains(x), body.contains(x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_descriptor("blob:r=1")

    def test_malformed_params_rejected(self):
        with pytest.raises(ValueError):
            parse_descriptor("polydisc:1,2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="key 'N' unknown"):
            parse_descriptor("strip:p=0.7,N=3", "unconditional")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="key 'r' repeated"):
            parse_descriptor("polydisc:r=1,r=2")

    def test_list_for_a_single_value_rejected(self):
        with pytest.raises(ValueError, match="single value for 'n'"):
            parse_descriptor("cylinder:R=1,n=2,3")

    @pytest.mark.parametrize("text, family, message", [
        ("polydisc r=1", None, "has no kind prefix"),
        ("product:strip:p=1|strip:p=2", "unconditional", "must be product:parts="),
        ("weighted-lp-ball:p=2,scale=1", "reinhardt", "Reinhardt lp ball needs weights w="),
    ], ids=["no-kind", "product-without-parts", "reinhardt-lp-without-weights"])
    def test_incomplete_descriptor_rejected(self, text, family, message):
        with pytest.raises(ValueError, match=message):
            parse_descriptor(text, family)

    @pytest.mark.parametrize("text, family, message", [
        ("polydisc:r=1", "unconditional",
         "^the unconditional family needs an unconditional body, got 'polydisc:r=1'$"),
        ("box:a=1,2", "reinhardt",
         "^the reinhardt family needs a Reinhardt body, got 'box:a=1,2'$"),
        ("product:parts=polydisc:r=1|strip:p=1", "reinhardt", "got 'strip:p=1'$"),
        ("product:parts=polydisc:r=1|strip:p=1", None, "mixes Reinhardt and unconditional parts"),
        ("product:parts=strip:p=1|lp-ball:p=2,w=1", None, "mixes Reinhardt and unconditional"),
    ], ids=["reinhardt-kind", "unconditional-kind", "product-part", "mixed-product",
            "mixed-product-lp"])
    def test_kind_of_the_other_family_rejected(self, text, family, message):
        with pytest.raises(ValueError, match=message):
            parse_descriptor(text, family)

    def test_other_familys_key_rejected(self):
        text = "weighted-lp-ball:p=3,n=2,scale=1.2,w=1,0.5"
        with pytest.raises(ValueError, match="key 'n' unknown"):
            parse_descriptor(text)
        assert parse_descriptor(text, "unconditional").dim == 2


_POS = st.floats(min_value=0.1, max_value=3.0)
_DIM = st.integers(min_value=1, max_value=3)
_WEIGHTS = st.lists(_POS, min_size=1, max_size=3)
_SCALE = st.floats(min_value=0.25, max_value=4.0)
# every kind parse_descriptor reads, per family
_KINDS = {
    "reinhardt": st.one_of(
        _WEIGHTS.map(polydisc),
        st.builds(cylinder_body, _POS, _DIM),
        st.builds(reinhardt_lp_ball, _WEIGHTS, st.floats(min_value=0.5, max_value=4.0), _POS),
        st.builds(lambda a, b: annulus_body(min(a, b), max(a, b)), _POS, _POS),
    ),
    "unconditional": st.one_of(
        st.builds(strip_body, _POS, _DIM),
        st.builds(cube_body, _POS, _DIM),
        _WEIGHTS.map(box_body),
        st.builds(lambda w, p, s: unconditional_lp_ball(p, len(w), s, w), _WEIGHTS,
                  st.floats(min_value=1.0, max_value=4.0), _POS),
        st.builds(cross_polytope, _POS, _DIM),
    ),
}


def _bodies_of(family: str):
    """Constructor bodies, their dilations, products of those and dilated
    products."""
    def dilated(bodies):
        return st.builds(lambda body, t: body.dilate(t), bodies, _SCALE)

    single = st.one_of(_KINDS[family], dilated(_KINDS[family]))
    products = st.builds(product, single, single)
    return st.one_of(single, products, dilated(products))


class TestDescriptorRoundTrip:
    @pytest.mark.parametrize("family", list(_KINDS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parse_gives_same_descriptor_and_membership(self, family, data):
        body = data.draw(_bodies_of(family))
        parsed = parse_descriptor(body.descriptor(), family)
        assert parsed.descriptor() == body.descriptor()
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        r = rng.exponential(size=(500, body.dim)) * 2.0
        assert np.array_equal(parsed.radial_member(r), body.radial_member(r))

    def test_product_dilates_each_part_once(self, monkeypatch, rng):
        from sineq import bodies as bodies_module

        calls = []
        original = bodies_module._dilate_radial

        def counted(body, t):
            calls.append(body.kind)
            return original(body, t)

        monkeypatch.setattr(bodies_module, "_dilate_radial", counted)
        prod = product(polydisc([1.0]), cylinder_body(0.5, 2))
        dilated = prod.dilate(2.0)
        assert calls == ["product", "polydisc", "cylinder"]
        expected = product(polydisc([2.0]), cylinder_body(1.0, 2))
        assert dilated.descriptor() == expected.descriptor()
        z = random_complex_points(rng, 2000, 3)
        assert np.array_equal(dilated.contains(z), expected.contains(z))


class TestRequireFinite:
    def test_finite_values_pass_through(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert require_finite(vals, "integrand", np.zeros((2, 3))) is vals

    def test_first_bad_value_and_its_point_named(self):
        # one row per column, one entry per point
        vals = np.array([[1.0, 3.0, np.nan], [2.0, np.inf, 0.0]])
        points = np.array([[0.0], [0.5], [1.0]])
        with pytest.raises(NonFiniteIntegrandError, match=r"^integrand returned inf at \[0.5\]$"):
            require_finite(vals, "integrand", points)


class TestValidateBody:
    def test_custom_shadow_gets_validated(self):
        from sineq.bodies import validate_body

        body = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.5)
        assert not body.validated
        ok = validate_body(body, rng_seed=3)
        assert ok.validated

    def test_upward_set_rejected(self):
        from sineq.bodies import validate_body

        with pytest.raises(ValueError):
            validate_body(custom_reinhardt(2, lambda m: m[:, 0] >= 1.0), rng_seed=3)

    def test_nonconvex_unconditional_rejected(self):
        from sineq.bodies import validate_body

        # the l_{1/2} unit ball: downward closed, so only convexity fails
        body = UnconditionalBody(dim=2, kind="custom", params={"n": 2},
                                 base=lambda m: np.sqrt(m).sum(axis=1) <= 1.0, validated=False)
        assert check_downward_closed(body, 5000).ok
        with pytest.raises(ValueError, match=r"not an unconditional convex body "
                                             r"\(midpoint convexity check failed\)"):
            validate_body(body)


class TestDescriptorNamesTheBody:
    """An unvalidated body must be the body its descriptor names, or its
    records would name another one."""

    def test_misnamed_hand_built_body_refused(self):
        from sineq.bodies import validate_body

        # a disc of radius 2 labelled as the unit disc: downward closed, so
        # only its name is wrong
        body = ReinhardtBody(dim=1, kind="polydisc", params={"r": (1.0,)},
                             gauge=lambda m: m[:, 0] / 2.0)
        assert body.radial_member(np.array([1.5]))
        assert not parse_descriptor(body.descriptor()).radial_member(np.array([1.5]))
        assert check_downward_closed(body, 5000).ok
        with pytest.raises(ValueError, match=r"^body 'polydisc:r=1\.0' is not the body its "
                                             r"descriptor names \(membership differs at \(1\."):
            validate_body(body)
        wide = UnconditionalBody(dim=2, kind="cube", params={"a": 1.0, "n": 2},
                                 gauge=lambda m: m.max(axis=1) / 2.0)
        with pytest.raises(ValueError, match=r"^body 'cube:a=1\.0,n=2' is not the body its "):
            validate_body(wide)
        with pytest.raises(ValueError, match=r"descriptor names \(dimension 1, not 2\)$"):
            validate_body(ReinhardtBody(dim=2, kind="polydisc", params={"r": (1.0,)},
                                        gauge=lambda m: m.max(axis=1)))

    def test_hand_built_body_named_right_is_validated(self):
        from sineq.bodies import validate_body

        disc = ReinhardtBody(dim=1, kind="polydisc", params={"r": (1.0,)}, gauge=lambda m: m[:, 0])
        cube = UnconditionalBody(dim=2, kind="cube", params={"a": 1.0, "n": 2},
                                 base=lambda m: m.max(axis=1) <= 1.0)
        assert validate_body(disc).validated and validate_body(cube).validated

    def test_constructor_bodies_parse_nothing(self, monkeypatch):
        from sineq import bodies
        from sineq.bodies import validate_body

        parsed = []
        original = bodies.parse_descriptor
        monkeypatch.setattr(bodies, "parse_descriptor",
                            lambda *args: parsed.append(args) or original(*args))
        constructed = [polydisc([1.0, 2.0]), cube_body(1.0, 2),
                       product(polydisc([1.0]), cylinder_body(0.5, 1)),
                       reinhardt_lp_ball([1.0, 0.7], 0.8).dilate(1.5)]
        for body in constructed:
            assert validate_body(body).validated
        assert parsed == []


class TestCustomDilationDescriptor:
    def test_dilation_is_part_of_the_descriptor(self):
        body = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.0)
        assert body.descriptor() == "custom:n=2"
        assert body.dilate(2.0).descriptor() == "custom:n=2,dilation=2.0"
        assert body.dilate(2.0).dilate(3.0).descriptor() == "custom:n=2,dilation=6.0"

    def test_dilated_membership_scales(self):
        body = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.0)
        r = np.array([[0.7, 0.7], [1.2, 0.9]])
        assert body.radial_member(r).tolist() == [False, False]
        assert body.dilate(2.0).radial_member(r).tolist() == [True, False]


# ---------------------------------------------------------------------------
# Gauges and exact sections


def _head_lp(w, p, scale):
    """The l_p ball predicate as written before bodies carried gauges."""
    w = np.asarray(w, dtype=float)
    if math.isinf(p):
        return lambda m: (w * m).max(axis=1) <= scale
    return lambda m: ((w * m) ** p).sum(axis=1) <= scale**p


def _head_product(*pieces):
    def pred(m):
        out = np.ones(m.shape[0], dtype=bool)
        lo = 0
        for part, dim in pieces:
            out &= part(m[:, lo : lo + dim])
            lo += dim
        return out

    return pred


# (id, body, the predicate of the body's kind before gauges)
GAUGE_CASES = [
    ("polydisc-zero-radius", polydisc([1.0, 0.0, 2.0]),
     lambda m: (m <= np.array([1.0, 0.0, 2.0])).all(axis=1)),
    ("cylinder-R0", cylinder_body(0.0, 3), lambda m: m[:, 0] <= 0.0),
    ("strip-p0", strip_body(0.0, 2), lambda a: a[:, 0] <= 0.0),
    ("lp-p0.5", reinhardt_lp_ball([1.0, 2.0, 0.5], 0.5, 1.3), _head_lp([1.0, 2.0, 0.5], 0.5, 1.3)),
    ("lp-p2", unconditional_lp_ball(2.0, 3, 1.2, [1.0, 2.0, 0.5]),
     _head_lp([1.0, 2.0, 0.5], 2.0, 1.2)),
    ("lp-pinf", reinhardt_lp_ball([1.0, 2.0, 3.0], math.inf, 1.3),
     _head_lp([1.0, 2.0, 3.0], math.inf, 1.3)),
    ("cube", cube_body(0.7, 3), lambda m: (m <= 0.7).all(axis=1)),
    ("cross-polytope", cross_polytope(1.5, 3), lambda m: m.sum(axis=1) <= 1.5),
    ("cylinder-x-lp", product(cylinder_body(1.0, 2), reinhardt_lp_ball([1.0, 1.0], 3.0, 1.2)),
     _head_product((lambda m: m[:, 0] <= 1.0, 2), (_head_lp([1.0, 1.0], 3.0, 1.2), 2))),
    ("strip-x-lp", product(strip_body(0.5, 2), unconditional_lp_ball(2.0, 2, 1.1)),
     _head_product((lambda a: a[:, 0] <= 0.5, 2), (_head_lp([1.0, 1.0], 2.0, 1.1), 2))),
    # n = 1 (no other coordinate) and n = 9 (numpy sums such rows in pairs)
    ("lp-n1", reinhardt_lp_ball([1.5], 3.0, 1.2), _head_lp([1.5], 3.0, 1.2)),
    ("cube-n1", cube_body(0.7, 1), lambda m: m[:, 0] <= 0.7),
    ("cross-polytope-n1", cross_polytope(1.5, 1), lambda m: m[:, 0] <= 1.5),
    ("lp-n9", unconditional_lp_ball(2.5, 9, 3.0, np.linspace(0.6, 1.4, 9)),
     _head_lp(np.linspace(0.6, 1.4, 9), 2.5, 3.0)),
    ("cube-n9", cube_body(0.9, 9), lambda m: (m <= 0.9).all(axis=1)),
    ("cross-polytope-n9", cross_polytope(6.0, 9), lambda m: m.sum(axis=1) <= 6.0),
]

gauge_cases = pytest.mark.parametrize("body, head", [c[1:] for c in GAUGE_CASES],
                                      ids=[c[0] for c in GAUGE_CASES])


def _orthant_points(seed: int, count: int, dim: int) -> np.ndarray:
    """Radius vectors at mixed scales, a quarter of the entries exactly 0
    so that zero radii meet zero coordinates."""
    rng = np.random.default_rng(seed)
    r = rng.exponential(size=(count, dim)) * rng.uniform(0.1, 2.0, size=(count, 1))
    r[rng.random(r.shape) < 0.25] = 0.0
    return r


class TestGauges:
    @gauge_cases
    def test_statistics_columns_are_the_dilated_membership(self, monkeypatch, body, head):
        from sineq import verify
        from sineq.integrate import Engine

        captured = {}
        estimate = verify._integ.estimate

        def spy(engine, measure, columns, ncols, *args, **kwargs):
            captured["columns"] = columns
            return estimate(engine, measure, columns, ncols, *args, **kwargs)

        monkeypatch.setattr(verify._integ, "estimate", spy)
        grid = (0.5, 1.0, 1.25, 2.0, 3.0)
        measure = verify.body_statistics(body, t_grid=grid,
                                         engine=Engine(method="mc", samples=100)).measure
        r = _orthant_points(1, 20_000, body.dim)
        # add points within rounding of the boundary of every dilate
        rho = body.gauge(r)
        finite = (rho > 0) & np.isfinite(rho)
        r = np.concatenate([r] + [r[finite] * (t / rho[finite])[:, None] for t in grid])
        # the gauge path hands over sublevels, not columns; their moments are
        # those of the explicit membership columns of the dilates
        explicit = np.stack([body.dilate(t).radial_member(r).astype(float) for t in grid]
                            + [measure.weight(r) * body.radial_member(r)])
        part = captured["columns"](r)
        assert isinstance(part, Sublevels)
        fast, slow = SampleMoments(len(grid) + 1), SampleMoments(len(grid) + 1)
        fast.add_chunk(part)
        slow.add_chunk(explicit)
        (n, mean, cov), (n_slow, mean_slow, cov_slow) = fast.finalize(), slow.finalize()
        assert n == n_slow == len(r)
        # counts are exact, and the weight is summed and squared as a column;
        # its cross entries with the indicators are sums in another order
        assert np.array_equal(mean, mean_slow)
        assert np.array_equal(cov[:-1, :-1], cov_slow[:-1, :-1])
        assert cov[-1, -1] == cov_slow[-1, -1]
        np.testing.assert_allclose(cov[-1], cov_slow[-1], rtol=1e-12, atol=0)

    @gauge_cases
    def test_membership_matches_the_predicate_formulas(self, body, head):
        r = _orthant_points(2, 100_000, body.dim)
        assert np.array_equal(body.radial_member(r), head(r))
        assert np.array_equal(body.dilate(1.5).radial_member(r), head(r / 1.5))

    @gauge_cases
    def test_gauge_is_positively_homogeneous(self, body, head):
        r = _orthant_points(3, 20_000, body.dim)
        c = np.random.default_rng(4).uniform(0.1, 10.0, size=len(r))
        np.testing.assert_allclose(body.gauge(c[:, None] * r), c * body.gauge(r),
                                   rtol=1e-12, atol=0)

    @gauge_cases
    @pytest.mark.parametrize("t", [1.0, 1.7])
    def test_sections_match_the_bisection_fallback(self, body, head, t):
        from sineq.entropy import _slice_entropies_indicator
        from sineq.measures import FACTORS

        body = body.dilate(t)
        fallback = custom_reinhardt(body.dim, body.base)
        assert body.section is not None and fallback.section is None
        r = _orthant_points(5, 20_000, body.dim)
        for factor in FACTORS.values():
            exact = _slice_entropies_indicator(body, factor, r)
            bisected = _slice_entropies_indicator(fallback, factor, r)
            np.testing.assert_allclose(exact, bisected, rtol=0, atol=1e-12)

    def test_a_product_section_evaluates_each_part_once(self):
        import dataclasses

        calls = []

        def counted(part, name):
            base = part.base
            return dataclasses.replace(part, base=lambda m: calls.append(name) or base(m))

        body = product(counted(polydisc([1.0]), "disc"),
                       counted(reinhardt_lp_ball([1.0, 2.0], 2.0, 1.5), "lp"),
                       counted(cylinder_body(0.8, 2), "cylinder"))
        sections = list(body.section(_orthant_points(6, 1000, body.dim)))
        assert len(sections) == body.dim == 5
        assert sorted(calls) == ["cylinder", "disc", "lp"]

    def test_zero_radius_admits_only_zero(self):
        body = polydisc([1.0, 0.0])
        r = np.array([[0.5, 0.0], [0.5, 1e-300], [0.0, 0.0]])
        assert body.gauge(r).tolist() == [0.5, math.inf, 0.0]
        assert body.radial_member(r).tolist() == [True, False, True]

    def test_infinite_radius_reads_zero(self):
        assert cylinder_body(2.0, 2).gauge(np.array([[1.0, 1e300]])).tolist() == [0.5]

    def test_box_gauge_is_the_whole_array_formula_to_the_bit(self):
        # column by column in place, with the bits of dividing the (m, n)
        # array and reducing its rows, 0/0 read as 0
        r = _orthant_points(7, 5000, 4)
        r[::3, 1] = 0.0
        for radii in ([0.5, 1.5, 2.5, math.inf], [1.0, 0.0, 2.0, 0.0]):
            a = np.array(radii)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(r == 0, 0.0, r / a).max(axis=1)
            assert polydisc(radii).gauge(r).tobytes() == want.tobytes()
        parts = product(polydisc([1.0, 2.0]), polydisc([0.5]), polydisc([3.0]))
        want = np.maximum(np.maximum((r[:, :2] / [1.0, 2.0]).max(axis=1), r[:, 2] / 0.5),
                          r[:, 3] / 3.0)
        assert parts.gauge(r).tobytes() == want.tobytes()

    def test_box_gauge_refuses_points_of_another_width(self):
        with pytest.raises(ValueError, match=r"expected shape \(m, 2\), got \(3, 1\)"):
            polydisc([1.0, 2.0]).gauge(np.ones((3, 1)))

    def test_predicate_bodies_have_neither(self):
        shadow = custom_reinhardt(2, lambda r: r.sum(axis=1) <= 1.0)
        for body in (shadow, annulus_body(0.5, 1.0), product(shadow, polydisc([1.0]))):
            assert body.gauge is None and body.section is None
        mixed = product(shadow, polydisc([1.0]))
        r = np.array([[0.2, 0.3, 0.9], [0.2, 0.3, 1.1], [0.8, 0.3, 0.1]])
        assert mixed.radial_member(r).tolist() == [True, False, False]

    def test_a_replaced_predicate_is_kept(self):
        import dataclasses

        calls = []
        body = polydisc([1.0, 2.0])

        def traced(m):
            calls.append(len(m))
            return body.base(m)

        wrapped = dataclasses.replace(body, base=traced)
        assert wrapped.gauge is body.gauge
        assert wrapped.radial_member(np.array([[0.5, 2.5]])).tolist() == [False]
        assert calls == [1]

    def test_body_needs_a_predicate_or_a_gauge(self):
        from sineq.bodies import ReinhardtBody

        with pytest.raises(ValueError, match="needs a predicate or a gauge"):
            ReinhardtBody(dim=1, kind="custom", params={})


LARGE_P = [(p, scale) for p in (50.0, 400.0, 1000.0) for scale in (0.1, 1.0, 10.0)]


def _near_the_lp_sphere(p: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Points rho * scale * u of the plane's orthant with |u|_p = 1 and rho
    within 1% of 1, the axes included, and their gauges rho."""
    rng = np.random.default_rng(int(p))
    theta = np.concatenate([[0.0, math.pi / 2], rng.uniform(0.0, math.pi / 2, 2000)])
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u /= u.max(axis=1, keepdims=True)  # entries in [0, 1], so u^p stays finite
    with np.errstate(under="ignore"):
        u /= ((u**p).sum(axis=1) ** (1.0 / p))[:, None]
    rho = rng.uniform(0.99, 1.01, size=len(u))
    return rho[:, None] * scale * u, rho


class TestLargeExponentBalls:
    """At large p the power sums of an l_p ball, and scale^p, leave the
    normal range; the ball's gauge and section stay those of its geometry."""

    def test_gauges_are_the_lp_norm_balls_to_the_bit(self):
        for p, scale in LARGE_P:
            r, rho = _near_the_lp_sphere(p, scale)
            expected = norm_ball(lp_norm(p), scale, 2).gauge(r)
            np.testing.assert_allclose(expected, rho, rtol=1e-12, err_msg=f"p={p}, scale={scale}")
            for body in (unconditional_lp_ball(p, 2, scale),
                         reinhardt_lp_ball([1.0, 1.0], p, scale)):
                assert np.array_equal(body.gauge(r), expected), (p, scale, body.kind)

    def test_sections_are_the_bisected_ones(self):
        from sineq.entropy import _bisected_section

        rng = np.random.default_rng(5)
        for p, scale in LARGE_P:
            for w in ([1.0, 1.0], [0.8, 1.25]):
                body = reinhardt_lp_ball(w, p, scale)
                # each other coordinate well inside (c > 0) or well outside (no section)
                u = np.where(rng.random((500, 2)) < 0.8, rng.uniform(0.0, 0.9, (500, 2)),
                             rng.uniform(1.1, 2.0, (500, 2)))
                r = scale * u / np.asarray(w)
                for (c, active), (c_bis, active_bis) in zip(body.section(r),
                                                            _bisected_section(body, r)):
                    assert np.array_equal(active, active_bis), (p, scale, w)
                    np.testing.assert_allclose(c[active], c_bis[active], rtol=1e-12, atol=0,
                                               err_msg=f"p={p}, scale={scale}, w={w}")

    def test_small_ball_measure_is_the_norm_balls(self):
        from sineq.integrate import mc_measure
        from sineq.measures import EXP_FACTOR, exponential

        ball = mc_measure(unconditional_lp_ball(400.0, 2, 0.1), exponential(2), 200_000, seed=1)
        twin = mc_measure(norm_ball(lp_norm(400.0), 0.1, 2), exponential(2), 200_000, seed=1)
        assert ball == twin
        # the ball lies between the squares of half-widths 0.1 * 2^(-1/400) and 0.1
        lo, hi = (EXP_FACTOR.cdf(a) ** 2 for a in (0.1 * 2.0 ** (-1 / 400), 0.1))
        assert lo - 4 * ball.std_error <= ball.value <= hi + 4 * ball.std_error


@pytest.mark.parametrize("call, match", [
    (lambda: reinhardt_lp_ball([1.0, 1.0], 0.0), "exponent must be > 0"),
    (lambda: reinhardt_lp_ball([1.0], -2.0), "exponent must be > 0"),
    (lambda: annulus_body(2.0, 1.0), "need 0 <= inner <= outer"),
    (lambda: box_body([]), "box needs at least one half-width"),
    (lambda: unconditional_lp_ball(2.0, 3, 1.0, [1.0, 1.0]), "need 3 weights"),
    (lambda: product(polydisc([1.0])), "product needs at least two bodies"),
    (lambda: check_downward_closed(polydisc([1.0]), samples=0), "samples must be >= 1"),
], ids=["lp-p0", "lp-p-negative", "annulus-inverted", "box-empty", "weights-count",
        "product-of-one", "closure-no-samples"])
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
