import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcsopt as r
from rcsopt.manifolds import (BasePointMismatchError, DegenerateRetractionError,
                              DegenerateTransportError, Manifold, _adopt)

from oracles import (sphere_norm_np, sphere_project_np, sphere_retract_np,
                     sphere_transport_np, sphere_transport_ode,
                     spd_transport_ode)


def sphere(n=3):
    return r.Sphere(n)


def spd(n=3):
    return r.SPD(n)


class TestPointsAndTangents:
    def test_sphere_point_validation(self):
        S = sphere()
        S.point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            S.point([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            r.Sphere(1)

    def test_spd_point_validation(self):
        P = spd(2)
        P.point(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            P.point(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
        with pytest.raises(ValueError):
            P.point(np.diag([1.0, -1.0]))  # not positive definite
        with pytest.raises(ValueError):
            r.SPD(0)

    def test_tangent_projection(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        xi = S.tangent(x, [5.0, 1.0, 2.0])
        assert abs(np.dot(xi.data, x.data)) < 1e-15
        P = spd(2)
        X = P.point(np.eye(2))
        v = P.tangent(X, np.array([[1.0, 3.0], [1.0, 2.0]]))
        assert np.allclose(v.data, v.data.T)

    def test_membership_checks(self):
        S, P = sphere(), spd(2)
        x, X = S.point([1.0, 0.0, 0.0]), P.point(np.diag([2.0, 1.0]))
        assert r.check_point(x) and r.check_point(X)
        for bad in ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0]):
            assert not r.check_point(r.ManifoldPoint(S, np.array(bad)))
        for bad in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
                    [[np.nan, 0.0], [0.0, 1.0]]):
            assert not r.check_point(r.ManifoldPoint(P, np.array(bad)))
        assert r.check_tangent(r.TangentVector(x, np.array([0.0, 1.0, 2.0])))
        assert not r.check_tangent(r.TangentVector(x, np.array([1.0, 0, 0])))
        assert r.check_tangent(r.TangentVector(X, np.array([[1.0, 3.0],
                                                            [3.0, 2.0]])))
        assert not r.check_tangent(r.TangentVector(X, np.array([[1.0, 3.0],
                                                                [1.0, 2.0]])))

    def test_tag_round_trip(self):
        for m in (sphere(4), spd(3)):
            assert Manifold.from_tag(m.tag()) == m
        for tag in ({"kind": "torus", "dim": 2}, {"dim": 2}):
            with pytest.raises(ValueError, match="unknown manifold tag"):
                Manifold.from_tag(tag)

    def test_random_tangent_gives_up_on_zero_draws(self):
        class ZeroRng:
            draws = 0

            def standard_normal(self, shape):
                self.draws += 1
                return np.zeros(shape)

        for m in (sphere(), spd(2)):
            x = m.random_point(np.random.default_rng(0))
            rng = ZeroRng()
            with pytest.raises(ValueError, match="no nonzero tangent"):
                m.random_tangent(x, rng)
            assert 1 < rng.draws <= 10
            assert r.norm(m.random_tangent(x, ZeroRng(), unit=False)) == 0.0

    def test_unit_draw_is_the_projected_normalized_sample(self):
        # Reference: project a normal sample, wrap it, divide by its norm.
        for m in (sphere(5), spd(3)):
            x = m.random_point(np.random.default_rng(1))
            got, ref = np.random.default_rng(2), np.random.default_rng(2)
            for _ in range(5):
                xi = m.tangent(x, ref.standard_normal(x.data.shape))
                want = xi * (1.0 / r.norm(xi))
                assert m.random_tangent(x, got).data.tobytes() \
                    == want.data.tobytes()

    def test_base_mismatch_raises(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        y = S.point([0.0, 1.0, 0.0])
        xi = S.tangent(x, [0.0, 1.0, 0.0])
        zeta = S.tangent(y, [1.0, 0.0, 0.0])
        with pytest.raises(BasePointMismatchError):
            r.inner(xi, zeta)
        with pytest.raises(BasePointMismatchError):
            xi + zeta


class TestInnerAndNorm:
    def test_sphere_orthogonal_coordinates(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        xi = S.tangent(x, [0.0, 1.0, 0.0])
        zeta = S.tangent(x, [0.0, 0.0, 1.0])
        assert r.inner(xi, zeta) == 0.0

    def test_spd_identity_inner(self):
        P = spd(2)
        X = P.point(np.eye(2))
        xi = P.tangent(X, np.eye(2))
        assert r.inner(xi, xi) == pytest.approx(2.0, abs=1e-14)

    def test_spd_inner_derived(self):
        # tr(X^-1 xi X^-1 zeta) with X=diag(2,1), xi=zeta=diag(2,0) equals 1
        P = spd(2)
        X = P.point(np.diag([2.0, 1.0]))
        xi = P.tangent(X, np.diag([2.0, 0.0]))
        assert r.inner(xi, xi) == pytest.approx(1.0, abs=1e-14)

    def test_norm(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        assert r.norm(S.zero_tangent(x)) == 0.0
        xi = S.tangent(x, [0.0, 3.0, 4.0])
        assert r.norm(xi) == pytest.approx(5.0, abs=1e-14)
        P = spd(2)
        X = P.point(np.eye(2))
        assert r.norm(P.tangent(X, np.eye(2))) == pytest.approx(np.sqrt(2))

    def test_inner_bilinear_symmetric(self):
        rng = np.random.default_rng(0)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            a = m.random_tangent(x, rng, unit=False)
            b = m.random_tangent(x, rng, unit=False)
            c = m.random_tangent(x, rng, unit=False)
            assert r.inner(a, b) == pytest.approx(r.inner(b, a), rel=1e-12)
            lhs = r.inner(2.0 * a + 3.0 * b, c)
            rhs = 2.0 * r.inner(a, c) + 3.0 * r.inner(b, c)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            assert r.inner(a, a) >= 0.0


class TestRetract:
    def test_sphere_formula(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        eta = S.tangent(x, [0.0, 1.0, 0.0])
        y = r.retract(x, eta)
        assert np.allclose(y.data, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])

    def test_zero_tangent_is_identity(self):
        rng = np.random.default_rng(1)
        for m in (sphere(5), spd(3)):
            x = m.random_point(rng)
            y = r.retract(x, m.zero_tangent(x))
            assert np.allclose(y.data, x.data, atol=1e-14)

    def test_spd_diagonal_exp(self):
        P = spd(2)
        X = P.point(np.eye(2))
        eta = P.tangent(X, np.diag([np.log(2.0), 0.0]))
        y = r.retract(X, eta)
        assert np.allclose(y.data, np.diag([2.0, 1.0]), atol=1e-14)

    def test_sphere_degenerate(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        eta = r.TangentVector(x, np.array([-1.0, 0.0, 0.0]))  # x + eta = 0
        with pytest.raises(DegenerateRetractionError):
            r.retract(x, eta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spd_overflow_is_degenerate(self):
        X = spd(2).point(np.eye(2))
        eta = r.TangentVector(X, np.diag([800.0, 0.0]))  # exp(800) = inf
        with pytest.raises(DegenerateRetractionError):
            r.retract(X, eta)

    def test_spd_closure_random(self):
        # Retraction output stays SPD for 1000 random (X, eta), ||eta|| <= 5
        P = spd(3)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = P.random_point(rng)
            scale = rng.uniform(0.0, 5.0)
            eta = scale * P.random_tangent(x, rng)
            y = r.retract(x, eta)
            assert r.check_point(y)

    def test_local_rigidity(self):
        # dist(x, R_x(t eta)) / t -> 1 for unit eta as t -> 0
        rng = np.random.default_rng(3)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            eta = m.random_tangent(x, rng)
            for t in (1e-3, 1e-4, 1e-5):
                d = r.distance(x, r.retract(x, t * eta))
                assert abs(d / t - 1.0) <= 1e-2

    def test_differential_at_zero_is_identity(self):
        # (R_x(t xi) - x) / t approximates xi in ambient coordinates
        rng = np.random.default_rng(4)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            xi = m.random_tangent(x, rng)
            t = 1e-7
            fd = (r.retract(x, t * xi).data - x.data) / t
            assert np.max(np.abs(fd - xi.data)) < 1e-6


class TestTransport:
    def test_zero_step_identity(self):
        rng = np.random.default_rng(5)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            xi = m.random_tangent(x, rng)
            out = r.transport_between(x, r.retract(x, m.zero_tangent(x)), xi)
            assert np.array_equal(out.data, xi.data)

    def test_sphere_velocity_transport_frozen(self):
        # Frozen via the great-circle ODE oracle (see oracles.py): transport
        # of eta itself to the projected-retraction endpoint of (0, pi/2, 0).
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        eta = S.tangent(x, [0.0, np.pi / 2, 0.0])
        out = r.transport_between(x, r.retract(x, eta), eta)
        expected = np.array([-1.3250666220286744, 0.8435636091835759, 0.0])
        assert np.max(np.abs(out.data - expected)) < 1e-8
        ode = sphere_transport_ode(x.data, r.retract(x, eta).data, eta.data)
        assert np.max(np.abs(out.data - ode)) < 1e-10

    def test_sphere_exp_endpoint_velocity(self):
        # Velocity transported along the full quarter circle to (0,1,0).
        ode = sphere_transport_ode([1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [0.0, np.pi / 2, 0.0])
        assert np.max(np.abs(ode - [-np.pi / 2, 0.0, 0.0])) < 1e-10
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        y = S.point([0.0, 1.0, 0.0])
        out = r.transport_between(x, y, S.tangent(x, [0.0, np.pi / 2, 0.0]))
        assert np.max(np.abs(out.data - [-np.pi / 2, 0.0, 0.0])) < 1e-12

    def test_spd_identity_base_closed_form(self):
        # E = expm(eta/2) at X = I, checked against the geodesic ODE oracle.
        P = spd(3)
        rng = np.random.default_rng(6)
        X = P.point(np.eye(3))
        eta = P.random_tangent(X, rng)
        xi = P.random_tangent(X, rng)
        w, q = np.linalg.eigh(eta.data)
        E = (q * np.exp(w / 2)) @ q.T
        out = r.transport_between(X, r.retract(X, eta), xi)
        assert np.max(np.abs(out.data - E @ xi.data @ E)) < 1e-12
        ode = spd_transport_ode(X.data, eta.data, xi.data)
        assert np.max(np.abs(out.data - ode)) < 1e-9

    def test_spd_random_base_vs_ode(self):
        P = spd(3)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = P.random_point(rng)
            eta = P.random_tangent(x, rng)
            xi = P.random_tangent(x, rng)
            out = r.transport_between(x, r.retract(x, eta), xi)
            ode = spd_transport_ode(x.data, eta.data, xi.data)
            assert np.max(np.abs(out.data - ode)) < 1e-8

    def test_isometry(self):
        # |  ||T(xi)|| - ||xi||  | <= 1e-10 (1 + ||xi||), 1000 cases each
        rng = np.random.default_rng(8)
        for m in (sphere(6), spd(3)):
            for _ in range(1000):
                x = m.random_point(rng)
                eta = rng.uniform(0.0, 2.0) * m.random_tangent(x, rng)
                xi = rng.uniform(0.0, 3.0) * m.random_tangent(x, rng)
                out = r.transport_between(x, r.retract(x, eta), xi)
                assert abs(r.norm(out) - r.norm(xi)) <= 1e-10 * (1 + r.norm(xi))

    def test_linearity(self):
        rng = np.random.default_rng(9)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            eta = m.random_tangent(x, rng)
            xi = m.random_tangent(x, rng, unit=False)
            zeta = m.random_tangent(x, rng, unit=False)
            a, b = 1.7, -0.4
            y = r.retract(x, eta)
            lhs = r.transport_between(x, y, a * xi + b * zeta)
            rhs = (a * r.transport_between(x, y, xi)
                   + b * r.transport_between(x, y, zeta))
            assert np.max(np.abs(lhs.data - rhs.data)) < 1e-10

    def test_result_is_tangent(self):
        rng = np.random.default_rng(10)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            eta = m.random_tangent(x, rng)
            xi = m.random_tangent(x, rng)
            out = r.transport_between(x, r.retract(x, eta), xi)
            assert r.check_tangent(out)
            assert r.same_point(out.base, r.retract(x, eta))

    def test_sphere_parallel_to_geodesic_velocity(self):
        # Along the exponential geodesic the transported direction stays
        # parallel to the velocity; for the projected retraction this holds
        # in direction, which is what the line search relies on.
        S = sphere(4)
        rng = np.random.default_rng(11)
        x = S.random_point(rng)
        eta = S.random_tangent(x, rng)
        for t in (0.3, 0.9):
            y = r.retract(x, t * eta)
            d = r.transport_between(x, y, eta)
            h = 1e-7
            fd = (r.retract(x, (t + h) * eta).data
                  - r.retract(x, (t - h) * eta).data) / (2 * h)
            fd_t = fd - np.dot(fd, y.data) * y.data
            cosang = (np.dot(d.data, fd_t)
                      / (np.linalg.norm(d.data) * np.linalg.norm(fd_t)))
            assert cosang > 1.0 - 1e-8

    def test_antipodal_transport_degenerate(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        y = S.point([-1.0, 0.0, 0.0])
        xi = S.tangent(x, [0.0, 1.0, 0.0])
        with pytest.raises(DegenerateTransportError):
            r.transport_between(x, y, xi)


class TestDistance:
    def test_same_point_zero(self):
        rng = np.random.default_rng(12)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            assert r.distance(x, x) == 0.0

    def test_sphere_quarter_circle(self):
        S = sphere()
        x = S.point([1.0, 0.0, 0.0])
        y = S.point([0.0, 1.0, 0.0])
        assert r.distance(x, y) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_spd_log_diagonal(self):
        P = spd(2)
        X = P.point(np.eye(2))
        Y = P.point(np.diag([np.e, np.e]))
        assert r.distance(X, Y) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for m in (sphere(4), spd(3)):
            x = m.random_point(rng)
            y = m.random_point(rng)
            assert r.distance(x, y) == pytest.approx(r.distance(y, x),
                                                     rel=1e-10)

    def test_injectivity_radius(self):
        assert sphere().injectivity_radius == np.pi
        assert spd().injectivity_radius == np.inf


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _outcome(fn, *args):
    """fn's result as bytes, or the fact that it raised a ValueError."""
    try:
        return _bits(fn(*args))
    except ValueError:
        return "raised"


@st.composite
def sphere_cases(draw):
    """(a, b, v): a unit point a, a point b at angle theta from it, and a
    tangent v at a of a drawn norm.  The angles cover b = a (a.b rounds to
    1 or just above it, the clip), b = -a (the antipodal raise), angles so
    small that ||b - c a|| < 1e-14, and steps near 1e-6."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    u = sphere_project_np(a, rng.standard_normal(n))
    u /= np.linalg.norm(u)
    theta = draw(st.one_of(
        st.floats(0.0, np.pi), st.floats(0.0, 1e-14),
        st.floats(1e-7, 1e-5), st.floats(np.pi - 1e-7, np.pi),
        st.sampled_from([0.0, 1e-6, np.pi])))
    b = np.cos(theta) * a + np.sin(theta) * u
    b /= np.linalg.norm(b)
    scale = draw(st.one_of(st.floats(0.0, 10.0), st.floats(1e-7, 1e-5)))
    v = sphere_project_np(a, rng.standard_normal(n))
    nv = np.linalg.norm(v)
    v = v * (scale / nv) if nv > 0.0 else v
    return a, b, v


class TestScalarSpherePaths:
    """The sphere's raw geometry gives the bits of its earlier numpy form."""

    @settings(max_examples=400, deadline=None)
    @given(case=sphere_cases())
    def test_transport(self, case):
        a, b, v = case
        S = r.Sphere(a.size)
        assert _outcome(S._transport, a, b, v) \
            == _outcome(sphere_transport_np, a, b, v)
        # The reversed pair, where v is not tangent at b, and b = a itself.
        assert _outcome(S._transport, b, a, v) \
            == _outcome(sphere_transport_np, b, a, v)
        assert _bits(S._transport(a, a, v)) \
            == _bits(sphere_transport_np(a, a, v))

    @settings(max_examples=400, deadline=None)
    @given(case=sphere_cases(), t=st.one_of(st.floats(-1e3, 1e3),
                                           st.floats(5e-7, 2e-6)))
    def test_retract_norm_project_inner(self, case, t):
        a, b, v = case
        S = r.Sphere(a.size)
        assert _outcome(S._retract, a, t * v) \
            == _outcome(sphere_retract_np, a, t * v)
        assert S._norm(a, v).hex() == sphere_norm_np(v).hex()
        assert _bits(S._project(b, v)) == _bits(sphere_project_np(b, v))
        assert S._inner(a, v, b).hex() == float(np.dot(v, b)).hex()

    def test_clip_binds_where_a_dot_a_rounds_above_one(self):
        # A unit vector whose self inner product rounds to 1 + 2^-52.
        rng = np.random.default_rng(5)
        a = np.zeros(4)
        while not float(a.dot(a)) > 1.0:
            a = rng.standard_normal(4)
            a /= np.linalg.norm(a)
        v = sphere_project_np(a, rng.standard_normal(4))
        S = r.Sphere(4)
        assert _bits(S._transport(a, a, v)) \
            == _bits(sphere_transport_np(a, a, v))


class TestWrapping:
    """Public constructors copy their input; the internal one adopts it."""

    def test_public_constructors_copy(self):
        S = sphere()
        raw = np.array([1.0, 0.0, 0.0])
        x = r.ManifoldPoint(S, raw)
        tv_raw = np.array([0.0, 2.0, 0.0])
        xi = r.TangentVector(x, tv_raw)
        for arr, obj in ((raw, x), (tv_raw, xi)):
            assert arr.flags.writeable
            assert not np.shares_memory(arr, obj.data)
            assert not obj.data.flags.writeable
            before = obj.data.copy()
            arr[1] = 7.0
            assert np.array_equal(obj.data, before)

    def test_adopt_freezes_in_place_without_a_copy(self):
        S = sphere()
        raw = np.array([1.0, 0.0, 0.0])
        x = _adopt(r.ManifoldPoint, S, raw)
        assert type(x) is r.ManifoldPoint and x.manifold is S
        assert x.data is raw and not raw.flags.writeable
        tv_raw = np.array([0.0, 2.0, 0.0])
        xi = _adopt(r.TangentVector, x, tv_raw)
        assert type(xi) is r.TangentVector and xi.base is x
        assert xi.data is tv_raw and not tv_raw.flags.writeable
        with pytest.raises(ValueError):
            tv_raw[0] = 1.0
        # The adopted objects behave like constructed ones.
        assert r.norm(xi) == 2.0 and r.check_point(x)
        assert np.array_equal((xi + xi).data, [0.0, 4.0, 0.0])
        with pytest.raises(AttributeError):
            xi.data = tv_raw
