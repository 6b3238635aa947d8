import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcsopt as r
from rcsopt.objectives import (_BLOCK_ENTRIES, AmbiguousDirectionError,
                               _median_terms, _require_symmetric)

from oracles import (fd_dir_deriv, fd_riemannian_gradient,
                     rayleigh_active_components)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestValues:
    def test_rayleigh_single_identity(self):
        oracle = r.RayleighQuotientMax(2, 1, np.eye(3)[None])
        x = r.Sphere(3).random_point(rng_for(0))
        assert oracle.value(x) == pytest.approx(0.5, abs=1e-15)

    def test_median_at_data_point(self):
        p = np.array([[1.0, 0.0, 0.0]])
        oracle = r.GeometricMedian(2, 1, p, np.array([1.0]))
        assert oracle.value(r.Sphere(3).point(p[0])) == 0.0

    def test_karcher_at_data_point(self):
        a = r.SPD(3).random_point(rng_for(1)).data
        oracle = r.SpdCenterOfMass(3, 1, a[None])
        assert oracle.value(r.SPD(3).point(a)) == pytest.approx(0.0, abs=1e-20)

    def test_lipschitz_sanity(self):
        # |f(x) - f(y)| <= L dist(x, y) with L = sum_i ||A_i||_2 (Rayleigh)
        oracle = r.generate_instance("rayleigh", 4, 6, seed=2)
        L = float(np.sum(np.max(np.abs(np.linalg.eigvalsh(oracle.mats)),
                                axis=1)))
        S = oracle.manifold
        g = rng_for(3)
        for _ in range(1000):
            x, y = S.random_point(g), S.random_point(g)
            assert abs(oracle.value(x) - oracle.value(y)) \
                <= L * r.distance(x, y) + 1e-12

    def test_median_lipschitz_one(self):
        oracle = r.generate_instance("median", 5, 8, seed=4)
        S = oracle.manifold
        g = rng_for(5)
        for _ in range(1000):
            x, y = S.random_point(g), S.random_point(g)
            assert abs(oracle.value(x) - oracle.value(y)) \
                <= r.distance(x, y) + 1e-12

    def test_karcher_lipschitz_sanity(self):
        # ||grad|| <= sum_i dist(X, A_i) and each term's distance changes at
        # unit rate along geodesics, so sum(max endpoint distances) + m * d
        # bounds the gradient norm on the whole segment.
        oracle = r.generate_instance("karcher", 3, 5, seed=5)
        P = oracle.manifold
        g = rng_for(6)
        mats = [P.point(a) for a in oracle.mats]
        for _ in range(1000):
            x, y = P.random_point(g), P.random_point(g)
            d = r.distance(x, y)
            L = sum(max(r.distance(x, a), r.distance(y, a))
                    for a in mats) + oracle.m * d
            assert abs(oracle.value(x) - oracle.value(y)) <= L * d + 1e-12


class TestDirDeriv:
    def test_zero_direction(self):
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 4, seed=6)
            x = oracle.manifold.random_point(rng_for(7))
            z = oracle.manifold.zero_tangent(x)
            assert oracle.dir_deriv(x, z) == 0.0

    def test_positive_homogeneity(self):
        g = rng_for(8)
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 4, seed=9)
            x = oracle.manifold.random_point(g)
            xi = oracle.manifold.random_tangent(x, g)
            for c in (0.3, 2.0, 17.0):
                assert oracle.dir_deriv(x, c * xi) == pytest.approx(
                    c * oracle.dir_deriv(x, xi), rel=1e-10)

    def test_rayleigh_zero_gradient_point(self):
        # A = diag(2,1,1), x = e2: grad = Ax - (x^T A x) x = 0
        oracle = r.RayleighQuotientMax(2, 1, np.diag([2.0, 1.0, 1.0])[None])
        S = r.Sphere(3)
        x = S.point([0.0, 1.0, 0.0])
        xi = S.tangent(x, [1.0, 0.0, 0.0])
        assert oracle.dir_deriv(x, xi) == pytest.approx(0.0, abs=1e-14)
        fd = fd_dir_deriv(oracle, x, xi, t=1e-6)
        assert abs(oracle.dir_deriv(x, xi) - fd) <= 1e-4

    def test_median_slope_at_data_point(self):
        # At x = x_1 the distance term grows with unit slope: f'(x; xi) = w1.
        p = np.array([[0.0, 0.0, 1.0]])
        oracle = r.GeometricMedian(2, 1, p, np.array([1.0]))
        S = r.Sphere(3)
        x = S.point(p[0])
        xi = S.tangent(x, [1.0, 0.0, 0.0])
        assert oracle.dir_deriv(x, xi) == pytest.approx(1.0, abs=1e-12)
        # arccos loses precision for arguments this close to 1, so the
        # difference step stays coarse enough to dodge the cancellation.
        fd = fd_dir_deriv(oracle, x, xi, t=1e-4)
        assert abs(fd - 1.0) <= 1e-4

    def test_finite_difference_consistency(self):
        # |f'(x; xi) - (f(R_x(t xi)) - f(x)) / t| <= C t at smooth points
        g = rng_for(10)
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 5, seed=11)
            worst_by_t = {}
            for _ in range(25):
                x = oracle.manifold.random_point(g)
                xi = oracle.manifold.random_tangent(x, g)
                dd = oracle.dir_deriv(x, xi)
                for t in (1e-4, 1e-5, 1e-6):
                    err = abs(dd - fd_dir_deriv(oracle, x, xi, t))
                    worst_by_t.setdefault(t, []).append(err)
            for t, errs in worst_by_t.items():
                assert max(errs) <= 200.0 * t, (kind, t, max(errs))

    def test_rayleigh_one_sided_sum_nonnegative(self):
        # max-of-smooth structure: f'(x; xi) + f'(x; -xi) >= 0
        g = rng_for(12)
        oracle = r.generate_instance("rayleigh", 4, 10, seed=13)
        for _ in range(200):
            x = oracle.manifold.random_point(g)
            xi = oracle.manifold.random_tangent(x, g)
            s = oracle.dir_deriv(x, xi) + oracle.dir_deriv(x, -xi)
            assert s >= -1e-8


class TestActiveSubgrad:
    def test_defining_property(self):
        # <g, xi> equals the directional derivative, here the closed-form
        # slope of the restricted ray at t = 0.
        g = rng_for(14)
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 6, seed=15)
            for _ in range(100):
                x = oracle.manifold.random_point(g)
                xi = oracle.manifold.random_tangent(x, g)
                gv = oracle.active_subgrad(x, xi)
                assert r.inner(gv, xi) == pytest.approx(
                    oracle.restrict(x, xi).slopes(0.0)[0], rel=1e-8,
                    abs=1e-10)

    def test_matches_fd_gradient_at_smooth_points(self):
        g = rng_for(16)
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 4, seed=17)
            x = oracle.manifold.random_point(g)
            xi = oracle.manifold.random_tangent(x, g)
            gv = oracle.active_subgrad(x, xi)
            fd = fd_riemannian_gradient(oracle, x)
            assert np.max(np.abs(gv.data - fd.data)) < 1e-4

    def test_rayleigh_tied_components(self):
        # Two exactly tied quadratics: the returned subgradient attains the
        # larger pairing with the query direction.
        a1 = np.diag([1.0, 0.0, 0.0])
        a2 = np.diag([0.0, 1.0, 0.0])
        oracle = r.RayleighQuotientMax(2, 2, np.stack([a1, a2]))
        S = r.Sphere(3)
        x = S.point(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))  # exact tie
        xi = S.tangent(x, [1.0, -1.0, 0.0])
        g1 = a1 @ x.data - (x.data @ a1 @ x.data) * x.data
        g2 = a2 @ x.data - (x.data @ a2 @ x.data) * x.data
        want = max(np.dot(g1, xi.data), np.dot(g2, xi.data))
        got = oracle.active_subgrad(x, xi)
        assert r.inner(got, xi) == pytest.approx(want, rel=1e-12)
        assert oracle.dir_deriv(x, xi) == pytest.approx(want, rel=1e-12)

    def test_rayleigh_membership_reconstructible(self):
        # The returned subgradient is the tangent-projected gradient of an
        # active component; recover its index by direct comparison.
        oracle = r.generate_instance("rayleigh", 4, 9, seed=40)
        g = rng_for(41)
        for _ in range(100):
            x = oracle.manifold.random_point(g)
            xi = oracle.manifold.random_tangent(x, g)
            got = oracle.active_subgrad(x, xi).data
            prods = oracle.mats @ x.data
            vals = 0.5 * prods @ x.data
            grads = prods - 2.0 * vals[:, None] * x.data
            dists = np.max(np.abs(grads - got), axis=1)
            i = int(np.argmin(dists))
            assert dists[i] <= 1e-12
            assert vals[i] >= np.max(vals) - 1e-10 * (1 + abs(np.max(vals)))

    def test_rayleigh_tie_break_smallest_index(self):
        # Duplicated matrices: identical slopes, index 0 wins.
        a = np.diag([1.0, 2.0, 3.0])
        oracle = r.RayleighQuotientMax(2, 2, np.stack([a, a]))
        S = r.Sphere(3)
        g = rng_for(18)
        x = S.random_point(g)
        xi = S.random_tangent(x, g)
        idx, grads = rayleigh_active_components(oracle, x)
        assert idx[0] == 0
        assert list(idx) == [0, 1]
        assert np.allclose(oracle.active_subgrad(x, xi).data, grads[0],
                           rtol=0.0, atol=1e-12)

    def test_median_singular_component(self):
        p = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        w = np.array([0.25, 0.75])
        oracle = r.GeometricMedian(2, 2, p, w)
        S = r.Sphere(3)
        x = S.point(p[0])
        xi = S.tangent(x, [0.0, 2.0, 0.0])
        gv = oracle.active_subgrad(x, xi)
        # singular term contributes w1 * xi / ||xi||
        assert r.inner(gv, xi) == pytest.approx(
            oracle.restrict(x, xi).slopes(0.0)[0], rel=1e-12)
        assert oracle.dir_deriv(x, xi) == pytest.approx(
            0.25 * r.norm(xi) + 0.75 * np.dot(
                -(p[1] - 0.0 * x.data) / 1.0, xi.data), rel=1e-10)

    def test_zero_direction_at_kink_raises(self):
        p = np.array([[0.0, 0.0, 1.0]])
        oracle = r.GeometricMedian(2, 1, p, np.array([1.0]))
        S = r.Sphere(3)
        x = S.point(p[0])
        with pytest.raises(AmbiguousDirectionError):
            oracle.active_subgrad(x, S.zero_tangent(x))
        with pytest.raises(AmbiguousDirectionError):
            oracle.dir_deriv(x, S.zero_tangent(x))

    def test_karcher_gradient_zero_at_mean(self):
        P = r.SPD(3)
        a = P.random_point(rng_for(19)).data
        oracle = r.SpdCenterOfMass(3, 1, a[None])
        x = P.point(a)
        xi = P.random_tangent(x, rng_for(20))
        assert r.norm(oracle.active_subgrad(x, xi)) <= 1e-8

    def test_subgradient_is_tangent(self):
        g = rng_for(21)
        for kind in ("rayleigh", "median", "karcher"):
            oracle = r.generate_instance(kind, 3, 4, seed=22)
            x = oracle.manifold.random_point(g)
            xi = oracle.manifold.random_tangent(x, g)
            assert r.check_tangent(oracle.active_subgrad(x, xi))


class TestGeneration:
    def test_deterministic(self):
        for kind in ("rayleigh", "median", "karcher"):
            a = r.generate_instance(kind, 4, 7, seed=23)
            b = r.generate_instance(kind, 4, 7, seed=23)
            if kind == "median":
                assert np.array_equal(a.points, b.points)
                assert np.array_equal(a.weights, b.weights)
            else:
                assert np.array_equal(a.mats, b.mats)

    def test_rayleigh_symmetric(self):
        a = r.generate_instance("rayleigh", 5, 9, seed=24)
        assert np.max(np.abs(a.mats - np.transpose(a.mats, (0, 2, 1)))) < 1e-15

    def test_karcher_spd(self):
        a = r.generate_instance("karcher", 4, 9, seed=25)
        assert np.all(np.linalg.eigvalsh(a.mats)[:, 0] > 0)
        assert np.all(np.linalg.eigvalsh(a.mats)[:, -1] <= 10.0 + 1e-12)

    def test_median_unit_rows_uniform_weights(self):
        a = r.generate_instance("median", 6, 11, seed=26)
        assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-14)
        assert np.allclose(a.weights, 1.0 / 11)

    # Matrices of order 51 (n = 50) per symmetrization block.
    PER_BLOCK = _BLOCK_ENTRIES // 51 ** 2

    @pytest.mark.parametrize("m", [PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1,
                                   PER_BLOCK + PER_BLOCK // 2, 200])
    def test_rayleigh_stack_is_the_out_of_place_symmetrization(self, m):
        b = rng_for(34).standard_normal((m, 51, 51))
        mats = r.generate_instance("rayleigh", 50, m, seed=34).mats
        assert mats.tobytes() == (0.5 * (b + np.transpose(b, (0, 2, 1)))
                                  ).tobytes()

    @pytest.mark.parametrize("n,m", [(50, 200), (100, 200), (100, 2000)])
    def test_median_points_are_the_whole_stack_normalization(self, n, m):
        p = rng_for(35).standard_normal((m, n + 1))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        points = r.generate_instance("median", n, m, seed=35).points
        assert points.tobytes() == p.tobytes()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            r.generate_instance("rayleigh", 0, 5, seed=0)
        with pytest.raises(ValueError):
            r.generate_instance("nope", 3, 5, seed=0)


class TestSerialization:
    def test_seed_round_trip(self):
        for kind in ("rayleigh", "median", "karcher"):
            a = r.generate_instance(kind, 3, 5, seed=27)
            b = r.instance_from_json(r.instance_to_json(a))
            assert b.kind == a.kind and b.n == a.n and b.m == a.m
            x = a.manifold.random_point(rng_for(28))
            assert b.value(x) == a.value(x)

    def test_inline_data_round_trip(self):
        for kind in ("rayleigh", "median", "karcher"):
            a = r.generate_instance(kind, 3, 5, seed=29)
            text = r.instance_to_json(a, include_data=True)
            obj = json.loads(text)
            obj["seed"] = None  # force the inline-data path
            b = r.instance_from_json(json.dumps(obj))
            x = a.manifold.random_point(rng_for(30))
            assert b.value(x) == pytest.approx(a.value(x), rel=1e-15)

    def test_missing_seed_and_data_rejected(self):
        with pytest.raises(ValueError):
            r.instance_from_json(json.dumps(
                {"kind": "rayleigh", "n": 3, "m": 5, "seed": None}))


def _pair_cases():
    """(oracle, x, xi): smooth points, ties, median kinks, both directions."""
    from test_linesearch import tied_rayleigh
    g = rng_for(50)
    cases = []
    for kind in ("rayleigh", "median", "karcher"):
        for n, m in ((1, 1), (3, 4), (6, 20)):
            oracle = r.generate_instance(kind, n, m, seed=51 + n)
            for _ in range(3):
                x = oracle.manifold.random_point(g)
                cases.append((oracle, x, oracle.manifold.random_tangent(x, g)))
    oracle, x, v = tied_rayleigh()
    cases += [(oracle, x, v), (oracle, x, -v)]
    a1, a2 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
    exact = r.RayleighQuotientMax(2, 2, np.stack([a1, a2]))
    xt = r.Sphere(3).point(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    for sign in (1.0, -1.0):
        cases.append((exact, xt, r.Sphere(3).tangent(xt, [sign, -sign, 0.0])))
    median = r.generate_instance("median", 3, 5, seed=55)
    for sign in (1.0, -1.0):  # at a data point and at its antipode
        xm = median.manifold.point(sign * median.points[2])
        cases.append((median, xm, median.manifold.random_tangent(xm, g)))
    return cases


class TestValueAndSubgrad:
    def test_equals_the_two_calls_bitwise(self):
        for oracle, x, xi in _pair_cases():
            f, g = oracle.value_and_subgrad(x, xi)
            assert type(f) is float
            assert f.hex() == oracle.value(x).hex()
            assert g.base is x
            ref = oracle.active_subgrad(x, xi)
            assert g.data.tobytes() == ref.data.tobytes()

    def test_zero_direction_at_a_kink_raises(self):
        from test_linesearch import tied_rayleigh
        oracle, x, _ = tied_rayleigh()
        p = np.array([[0.0, 0.0, 1.0]])
        median = r.GeometricMedian(2, 1, p, np.array([1.0]))
        for o, y in ((oracle, x), (median, r.Sphere(3).point(p[0]))):
            zero = o.manifold.zero_tangent(y)
            for call in (o.active_subgrad, o.value_and_subgrad):
                with pytest.raises(AmbiguousDirectionError):
                    call(y, zero)


class TestDataValidation:
    @staticmethod
    def _poisoned(kind, bad, where):
        a = r.generate_instance(kind, 3, 4, seed=33)
        if kind == "median":
            points, weights = a.points.copy(), a.weights.copy()
            if where == "weights":
                weights[1] = bad
            else:
                points[1, 2] = bad
            return lambda: r.GeometricMedian(3, 4, points, weights)
        mats = a.mats.copy()
        mats[1, 0, 0] = bad
        cls = r.RayleighQuotientMax if kind == "rayleigh" else r.SpdCenterOfMass
        return lambda: cls(3, 4, mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,where", [
        ("rayleigh", "data"), ("median", "data"), ("median", "weights"),
        ("karcher", "data")])
    def test_non_finite_data_rejected(self, kind, where, bad):
        build = self._poisoned(kind, bad, where)
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: r.RayleighQuotientMax(1, 1, np.eye(2)[None] * (1 + 1j)),
        lambda: r.SpdCenterOfMass(2, 1, np.eye(2)[None] * (1 + 1j)),
        lambda: r.GeometricMedian(1, 1, np.array([[1j, 0.0]]),
                                  np.array([1.0])),
        lambda: r.GeometricMedian(1, 1, np.array([[1.0, 0.0]]),
                                  np.array([1.0 + 0j])),
    ], ids=["rayleigh", "karcher", "median-points", "median-weights"])
    def test_complex_data_rejected(self, build):
        with pytest.raises(ValueError, match="real, not complex"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: r.RayleighQuotientMax(3, 0, np.zeros((0, 4, 4))),
        lambda: r.SpdCenterOfMass(3, 0, np.zeros((0, 3, 3))),
        lambda: r.SpdCenterOfMass(0, 2, np.zeros((2, 0, 0))),
        lambda: r.GeometricMedian(3, 0, np.zeros((0, 4)), np.zeros(0)),
    ], ids=["rayleigh-m0", "karcher-m0", "karcher-n0", "median-m0"])
    def test_empty_stack_rejected(self, build):
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            build()

    @pytest.mark.parametrize("kind", ["rayleigh", "karcher"])
    def test_asymmetric_stack_rejected(self, kind):
        mats = r.generate_instance(kind, 3, 4, seed=36).mats.copy()
        mats[2, 0, 1] += 1e-9
        cls = r.RayleighQuotientMax if kind == "rayleigh" else r.SpdCenterOfMass
        with pytest.raises(ValueError, match="symmetric"):
            cls(3, 4, mats)


def _old_asymmetric(a):
    """The whole-stack symmetry test the blockwise check replaces."""
    return np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > 1e-12


# Matrices of order 64 per check block; a stack of 2 full blocks plus a
# partial last one.
_K = 64
_PER = _BLOCK_ENTRIES // _K ** 2
_M = 2 * _PER + 3
_BASE = np.random.default_rng(37).standard_normal((_M, _K, _K))
_BASE = 0.5 * (_BASE + np.transpose(_BASE, (0, 2, 1)))
_BASE[:, 0, 1] = _BASE[:, 1, 0] = 0.0  # exact perturbation sizes at (0, 1)


class TestSymmetryCheck:
    @settings(max_examples=200, deadline=None)
    @given(block=st.sampled_from([0, 1, 2]),
           offset=st.integers(0, _PER - 1),
           jk=st.sampled_from([(0, 1), (1, 0), (3, 60), (63, 5)]),
           delta=st.one_of(st.floats(5e-13, 2e-12),
                           st.sampled_from([1e-12, np.nextafter(1e-12, 1.0),
                                            np.nextafter(1e-12, 0.0)])),
           sign=st.sampled_from([1.0, -1.0]))
    @example(block=2, offset=2, jk=(0, 1), delta=1e-12, sign=1.0)
    @example(block=2, offset=2, jk=(0, 1), delta=np.nextafter(1e-12, 1.0),
             sign=-1.0)
    def test_accepts_exactly_when_the_whole_stack_check_does(
            self, block, offset, jk, delta, sign):
        # Block 0 is the first, block 2 the partial last one.
        i = min(block * _PER + offset, _M - 1)
        a = _BASE.copy()
        a[(i,) + jk] += sign * delta
        if _old_asymmetric(a):
            with pytest.raises(ValueError, match="symmetric"):
                _require_symmetric(a)
        else:
            _require_symmetric(a)

    def test_symmetric_stack_accepted(self):
        _require_symmetric(_BASE)
        assert not _old_asymmetric(_BASE)


class TestConstructionMemory:
    """Building and checking a data stack allocates O(block) beyond it."""

    @staticmethod
    def _peak(build):
        build()  # first-call allocations stay out of the figure
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_rayleigh_generation_peak(self):
        nbytes = r.generate_instance("rayleigh", 50, 200, seed=38).mats.nbytes
        peak = self._peak(lambda: r.generate_instance("rayleigh", 50, 200,
                                                      seed=38))
        assert peak <= 1.5 * nbytes, (peak, nbytes)

    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 50, 200),
                                          ("karcher", 20, 1000)])
    def test_constructor_overhead(self, kind, n, m):
        mats = r.generate_instance(kind, n, m, seed=39).mats
        cls = r.RayleighQuotientMax if kind == "rayleigh" else r.SpdCenterOfMass
        peak = self._peak(lambda: cls(n, m, mats))
        assert peak <= 0.5 * mats.nbytes, (peak, mats.nbytes)


class TestMedianTerms:
    def test_fast_path_equals_the_masked_path(self):
        # Without singular terms the index is a full slice; the masked path
        # (forced by one extra singular term) gives the same regular terms.
        rng = np.random.default_rng(200)
        for m in (1, 7, 200):
            u = rng.uniform(-1.0 + 1e-9, 1.0 - 1e-9, m)
            w = rng.uniform(0.1, 1.0, m)
            reg, coef, sw, has_sing = _median_terms(u, w)
            assert reg == slice(None) and sw == 0.0 and not has_sing
            for extra in (1.0, -1.0):
                mreg, mcoef, msw, mhas = _median_terms(np.append(u, extra),
                                                       np.append(w, 0.5))
                assert mreg.dtype == bool and list(mreg) == [True] * m + [False]
                assert mhas and msw == 0.5 * extra
                assert np.array_equal(mcoef, coef)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_singular_point_keeps_the_masked_path(self, sign):
        # At a data point or its antipode the term is masked out and carries
        # the signed weight; the oracle's dir_deriv and active_subgrad match
        # a term-by-term sum over the other points.
        oracle = r.generate_instance("median", 3, 5, seed=201)
        S = oracle.manifold
        x = S.point(sign * oracle.points[2])
        u = np.clip(oracle.points @ x.data, -1.0, 1.0)
        reg, _, sw, has_sing = _median_terms(u, oracle.weights)
        assert list(reg) == [True, True, False, True, True]
        assert has_sing and sw == sign * oracle.weights[2]
        grad = np.zeros(4)
        for i in (0, 1, 3, 4):
            p, w = oracle.points[i], oracle.weights[i]
            grad -= w / np.sqrt(1.0 - u[i] ** 2) * (p - u[i] * x.data)
        xi = S.random_tangent(x, np.random.default_rng(202))
        nxi = np.linalg.norm(xi.data)
        want = grad + (sw / nxi) * xi.data
        assert np.allclose(oracle.active_subgrad(x, xi).data, want,
                           rtol=0.0, atol=1e-14)
        assert oracle.dir_deriv(x, xi) == pytest.approx(
            grad @ xi.data + sw * nxi, abs=1e-14)

    def test_regular_point_gradient_uses_every_term(self):
        oracle = r.generate_instance("median", 3, 5, seed=203)
        x = oracle.manifold.random_point(np.random.default_rng(204))
        u = oracle.points @ x.data
        coef = oracle.weights / np.sqrt(1.0 - u ** 2)
        want = -(coef @ (oracle.points - u[:, None] * x.data))
        xi = oracle.manifold.random_tangent(x, np.random.default_rng(205))
        assert np.allclose(oracle.active_subgrad(x, xi).data, want,
                           rtol=0.0, atol=1e-14)
