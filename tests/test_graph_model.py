import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qimatch.errors import DegenerateGeometryError
from qimatch.graph_model import (
    GeomRelation,
    GeomWeights,
    ImageGraph,
    InterestPoint,
    d_geom,
    geom_relation,
    wrap_angle,
    wrap_angles,
)


def pt(x, y, scale=1.0, theta=0.0, desc=(1.0, 0.0)):
    return InterestPoint(x=x, y=y, scale=scale, orientation=theta, descriptor=np.array(desc))


class TestWrapAngle:
    def test_range(self):
        for theta in (-10.0, -math.pi, 0.0, 1.0, math.pi, 100.0):
            w = wrap_angle(theta)
            assert -math.pi <= w < math.pi

    def test_idempotent_in_range(self):
        for theta in (-math.pi, -1.5, 0.0, 2.0, math.pi - 1e-12):
            assert wrap_angle(wrap_angle(theta)) == wrap_angle(theta)

    def test_array_form_is_bit_exact(self):
        edge = [
            -math.pi,
            math.nextafter(math.pi, 0.0),
            math.pi,
            math.nextafter(-math.pi, -math.inf),  # the modulo lands on pi: the fix-up
            3 * math.pi,
            -3 * math.pi,
            -0.0,
            -1e3,
        ]
        rng = np.random.default_rng(5)
        thetas = np.array(edge + rng.uniform(-20.0, 20.0, 400).tolist()).reshape(-1, 2)
        got = wrap_angles(thetas)
        want = np.array([wrap_angle(t) for t in thetas.ravel().tolist()]).reshape(thetas.shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got[1, 1] == -math.pi

    @given(st.floats(-100, 100), st.integers(-5, 5))
    def test_periodic(self, theta, k):
        assert wrap_angle(theta + 2 * math.pi * k) == pytest.approx(
            wrap_angle(theta), abs=1e-9
        ) or abs(abs(wrap_angle(theta + 2 * math.pi * k) - wrap_angle(theta)) - 2 * math.pi) < 1e-9


class TestInterestPoint:
    def test_descriptor_normalized(self):
        p = pt(0, 0, desc=(3.0, 4.0))
        assert np.linalg.norm(p.descriptor) == pytest.approx(1.0, abs=1e-12)

    def test_zero_descriptor_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, desc=(0.0, 0.0))

    def test_empty_descriptor_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            pt(0, 0, desc=())

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, scale=0.0)

    def test_orientation_wrapped(self):
        p = pt(0, 0, theta=3 * math.pi)
        assert -math.pi <= p.orientation < math.pi

    def test_unit_descriptor_unchanged(self):
        d = np.array([3.0, 4.0]) / 5.0
        p = pt(0, 0, desc=d)
        assert p.descriptor.tolist() == d.tolist()

    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.builds(  # magnitudes spread evenly over 1e-300 to 1e300
                    lambda sign, m, e: sign * m * 10.0**e,
                    st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 299),
                ),
            ),
            min_size=1,
            max_size=128,
        ).filter(any)
    )
    def test_finite_nonzero_descriptor_loads_as_unit_vector(self, values):
        with np.errstate(all="raise"):
            p = pt(0, 0, desc=values)
            again = pt(0, 0, desc=p.descriptor)
        assert abs(math.hypot(*p.descriptor) - 1.0) <= 1e-12
        assert again.descriptor.tobytes() == p.descriptor.tobytes()

    def test_descriptor_norm_out_of_float_range(self):
        unit = pt(0, 0, desc=(1.0, 1.0)).descriptor.tobytes()
        for values in ((1e-170, 1e-170), (1e-160, 1e-160), (1e200, 1e200)):
            assert pt(0, 0, desc=values).descriptor.tobytes() == unit
        # a norm of at least sqrt(float min) is divided out as it is
        d = np.array([1.2e-154, -1e-154])
        assert pt(0, 0, desc=d).descriptor.tolist() == (d / np.linalg.norm(d)).tolist()

    @given(
        st.sampled_from(["x", "y", "scale", "orientation", "descriptor"]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 2),
    )
    def test_non_finite_rejected(self, name, bad, k):
        fields = dict(x=1.0, y=2.0, scale=1.5, orientation=0.3, descriptor=[0.6, 0.8, 0.0])
        if name == "descriptor":
            fields["descriptor"][k] = bad
        else:
            fields[name] = bad
        with pytest.raises(ValueError, match="finite"):
            InterestPoint(**fields)


class TestImageGraph:
    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            ImageGraph(points=(pt(0, 0), pt(1, 1, desc=(1.0, 0.0, 0.0))))

    def test_descriptor_dim(self):
        g = ImageGraph(points=(pt(0, 0), pt(1, 1)), id="g")
        assert g.descriptor_dim == 2
        assert len(g) == 2
        assert ImageGraph(points=()).descriptor_dim is None


class TestGeomRelation:
    def test_unit_displacement(self):
        r = geom_relation(pt(0, 0), pt(1, 0))
        assert r == GeomRelation(0.0, 0.0, 0.0, 0.0)

    def test_rotated_pair_invariant(self):
        # both points rotated by pi/2 about the origin
        a = pt(0, 0, theta=math.pi / 2)
        b = pt(0, 1, theta=math.pi / 2)
        r = geom_relation(a, b)
        assert r.log_dist == pytest.approx(0.0, abs=1e-12)
        assert r.bearing == pytest.approx(0.0, abs=1e-12)
        assert r.log_scale_ratio == 0.0
        assert r.d_orient == 0.0

    def test_hand_evaluated(self):
        r = geom_relation(pt(0, 0, scale=2.0), pt(0, 2, scale=4.0, theta=math.pi / 2))
        assert r.log_dist == pytest.approx(0.0, abs=1e-12)
        assert r.bearing == pytest.approx(math.pi / 2, abs=1e-12)
        assert r.log_scale_ratio == pytest.approx(math.log(2), abs=1e-12)
        assert r.d_orient == pytest.approx(math.pi / 2, abs=1e-12)

    def test_coincident_points(self):
        with pytest.raises(DegenerateGeometryError):
            geom_relation(pt(1, 1), pt(1, 1))

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0.5, 4), st.floats(0.5, 4),
        st.floats(-3, 3), st.floats(-3, 3),
        st.floats(-math.pi, math.pi), st.floats(0.1, 10),
        st.floats(-100, 100), st.floats(-100, 100),
    )
    @settings(max_examples=100)
    def test_similarity_invariance(self, ax, ay, bx, by, sa, sb, ta, tb, phi, s, tx, ty):
        if math.hypot(bx - ax, by - ay) < 1e-3:
            return
        a = pt(ax, ay, sa, ta)
        b = pt(bx, by, sb, tb)

        def transform(p):
            c, si = math.cos(phi), math.sin(phi)
            return pt(
                s * (c * p.x - si * p.y) + tx,
                s * (si * p.x + c * p.y) + ty,
                s * p.scale,
                p.orientation + phi,
            )

        r0 = geom_relation(a, b)
        r1 = geom_relation(transform(a), transform(b))
        assert r1.log_dist == pytest.approx(r0.log_dist, abs=1e-9)
        assert wrap_angle(r1.bearing - r0.bearing) == pytest.approx(0.0, abs=1e-9)
        assert r1.log_scale_ratio == pytest.approx(r0.log_scale_ratio, abs=1e-9)
        assert wrap_angle(r1.d_orient - r0.d_orient) == pytest.approx(0.0, abs=1e-9)


class TestDGeom:
    def test_equal_relations(self):
        g = GeomRelation(0.3, 0.1, -0.2, 0.5)
        assert d_geom(g, g) == 1.0

    def test_saturation_boundary(self):
        w = GeomWeights()  # unit weights, r0 = 1
        g1 = GeomRelation(0.0, 0.0, 0.0, 0.0)
        g2 = GeomRelation(1.0, 0.0, 0.0, 0.0)  # residual exactly r0
        assert d_geom(g1, g2, w) == -1.0

    def test_half_residual(self):
        w = GeomWeights(r0=2.0)
        g1 = GeomRelation(0.0, 0.0, 0.0, 0.0)
        g2 = GeomRelation(0.5, 0.0, 0.0, 0.0)
        assert d_geom(g1, g2, w) == pytest.approx(0.5, abs=1e-12)

    @given(
        st.floats(-2, 2), st.floats(-3, 3), st.floats(-2, 2), st.floats(-3, 3),
        st.floats(-2, 2), st.floats(-3, 3), st.floats(-2, 2), st.floats(-3, 3),
    )
    # angles more than pi apart, whose a - b and b - a wrap to different bits
    @example(0.0, -2.674695030132182, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0)  # bearings
    @example(0.0, 0.0, 0.0, -2.674695030132182, 0.0, 0.0, 0.0, 3.0)  # orientations
    def test_symmetric_and_bounded(self, a1, a2, a3, a4, b1, b2, b3, b4):
        g1 = GeomRelation(a1, a2, a3, a4)
        g2 = GeomRelation(b1, b2, b3, b4)
        assert d_geom(g1, g2) == d_geom(g2, g1)
        assert -1.0 <= d_geom(g1, g2) <= 1.0

    def test_one_only_at_zero_residual(self):
        g1 = GeomRelation(0.1, 0.2, 0.3, 0.4)
        g2 = GeomRelation(0.1, 0.2, 0.3, 0.4 + 1e-6)
        assert d_geom(g1, g2) < 1.0


class TestGeomWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GeomWeights(w_dist=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            GeomWeights(0.0, 0.0, 0.0, 0.0)

    def test_bad_r0_rejected(self):
        with pytest.raises(ValueError):
            GeomWeights(r0=0.0)

    # NaN or an infinite weight would make every candidate pair conflict
    @pytest.mark.parametrize("field", ["w_dist", "w_bearing", "w_scale", "w_orient", "r0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            GeomWeights(**{field: value})
