import math

import numpy as np
import pytest

import rcsopt as r
from rcsopt.linesearch import (LineSearchConfig, LineSearchStallError,
                               RayObjective, RestrictedRayObjective, irp,
                               line_search, ray_objective)


class ScalarCurve:
    """Univariate test handle with one-sided derivatives."""

    def __init__(self, f, dplus, dminus=None):
        self.f = f
        self.dplus = dplus
        self.dminus = dminus or dplus
        self.evals = 0
        self._cache = {}

    def value(self, t):
        if t not in self._cache:
            self._cache[t] = self.f(t)
            self.evals += 1
        return self._cache[t]

    def right_deriv(self, t):
        return self.dplus(t)

    def left_deriv(self, t):
        return self.dminus(t)


def quadratic_at(c):
    return ScalarCurve(lambda t: (t - c) ** 2, lambda t: 2 * (t - c))


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = LineSearchConfig()
        assert cfg.q == 0.33 and cfg.rho == 2.0 and cfg.interval_tol == 1e-6

    @pytest.mark.parametrize("kw", [
        dict(tau_lo_init=-1.0), dict(tau_init=0.0), dict(tau_hi_init=0.5),
        dict(q=0.0), dict(q=0.5), dict(rho=1.0), dict(interval_tol=0.0),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            LineSearchConfig(**kw)


class TestIRP:
    def test_smooth_quadratic(self):
        l = quadratic_at(2.0)
        tau, lo, hi, approx, iters = irp(l, LineSearchConfig())
        assert abs(tau - 2.0) <= 1e-6
        assert lo <= tau <= hi

    def test_vshape_kink(self):
        l = ScalarCurve(lambda t: abs(t - 2.0),
                        lambda t: 1.0 if t >= 2.0 else -1.0,
                        lambda t: 1.0 if t > 2.0 else -1.0)
        tau, lo, hi, approx, iters = irp(l, LineSearchConfig())
        assert abs(tau - 2.0) <= 1e-6

    def test_monotone_decreasing_runs_to_edge(self):
        l = ScalarCurve(lambda t: -t, lambda t: -1.0)
        tau, lo, hi, approx, iters = irp(l, LineSearchConfig())
        assert approx
        assert abs(tau - 100.0) <= 1e-4
        assert hi - lo <= 1e-6

    def test_unbounded_bracket_expands_then_converges(self):
        # With tau_hi = inf the trial grows as rho * max(tau_lo, 1) until an
        # upper bound appears, then the interval halves; parabola min at 50
        # is hit exactly by a midpoint, triggering the optimality return.
        l = quadratic_at(50.0)
        cfg = LineSearchConfig(tau_hi_init=math.inf)
        tau, lo, hi, approx, iters = irp(l, cfg)
        assert not approx
        assert tau == pytest.approx(50.0, abs=1e-6)

    def test_descent_region_below_resolution_returns_zero(self):
        # Descent exists only on (0, 1e-9): every probe fails, the upper
        # bound collapses, and the lower endpoint 0 is returned.
        l = ScalarCurve(lambda t: max(-1e-8 * t, t - 1.1e-9),
                        lambda t: -1e-8 if t < 1.0e-9 else 1.0)
        tau, lo, hi, approx, iters = irp(l, LineSearchConfig())
        assert approx
        assert tau == 0.0
        assert hi <= 2e-6

    def test_bracket_monotone_and_contracting(self):
        trace = []
        irp(quadratic_at(7.3), LineSearchConfig(), trace=trace)
        q = 0.33
        prev = None
        upper_moved = False
        for rec in trace:
            assert rec["tau_lo"] < rec["tau_hi"]
            if prev is not None:
                assert rec["tau_lo"] >= prev["tau_lo"]
                assert rec["tau_hi"] <= prev["tau_hi"]
                if upper_moved and math.isfinite(prev["tau_hi"]):
                    w_prev = prev["tau_hi"] - prev["tau_lo"]
                    w = rec["tau_hi"] - rec["tau_lo"]
                    assert w <= (1 - q) * w_prev + 1e-12
            upper_moved = upper_moved or rec["branch"] == "upper"
            prev = rec

    def test_trace_one_record_per_iteration(self):
        for target, ends in ((0.5, "return"), (1.0, "return"),
                             (7.3, "upper")):
            trace = []
            tau_star, lo, hi, approx, iters = irp(
                quadratic_at(target), LineSearchConfig(), trace=trace)
            assert [rec["i"] for rec in trace] == list(range(1, iters + 1))
            assert trace[-1]["branch"] == ends
            assert approx == (ends != "return")
            if not approx:
                assert (trace[-1]["tau"], trace[-1]["tau_lo"],
                        trace[-1]["tau_hi"]) == (tau_star, lo, hi)

    def test_iteration_cap_raises_with_bracket(self):
        l = ScalarCurve(lambda t: -t, lambda t: -1.0)
        cfg = LineSearchConfig(tau_hi_init=math.inf)
        with pytest.raises(LineSearchStallError) as exc:
            irp(l, cfg)
        assert exc.value.tau_lo > 0

    def test_upper_bound_beyond_injectivity_rejected(self):
        with pytest.raises(ValueError):
            irp(quadratic_at(2.0), LineSearchConfig(), inj_bound=50.0)


def rayleigh_ray(seed=0, n=4, m=6, descent=True):
    oracle = r.generate_instance("rayleigh", n, m, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = oracle.manifold.random_point(rng)
    xi = oracle.manifold.random_tangent(x, rng)
    g = oracle.active_subgrad(x, xi)
    eta = -g if descent else g
    return oracle, x, eta


class TestRayObjective:
    def test_value_at_zero_is_exact(self):
        oracle, x, eta = rayleigh_ray(1)
        pf = RayObjective(oracle, x, eta, f0=oracle.value(x))
        assert pf.value(0.0) == oracle.value(x)

    def test_value_matches_retract_bitwise(self):
        oracle, x, eta = rayleigh_ray(2)
        pf = RayObjective(oracle, x, eta)
        for t in (0.17, 1.3, 4.0):
            assert pf.value(t) == oracle.value(r.retract(x, t * eta))

    def test_constant_objective(self):
        oracle = r.RayleighQuotientMax(2, 1, np.eye(3)[None])
        S = r.Sphere(3)
        rng = np.random.default_rng(3)
        x = S.random_point(rng)
        pf = RayObjective(oracle, x, S.random_tangent(x, rng))
        assert all(pf.value(t) == pytest.approx(0.5, abs=1e-15)
                   for t in (0.0, 0.5, 2.0))

    def test_caching_saves_evaluations(self):
        oracle, x, eta = rayleigh_ray(4)
        stats = r.EvalStats()
        pf = RayObjective(r.CountingOracle(oracle, stats), x, eta)
        pf.value(1.0), pf.value(1.0), pf.value(1.0)
        assert stats.nf == 1

    def test_one_sided_derivatives_ordered(self):
        # left <= right along rays of a max-of-smooth objective
        for seed in range(20):
            oracle, x, eta = rayleigh_ray(seed)
            pf = RayObjective(oracle, x, eta)
            for t in (0.0, 0.3, 1.1, 2.7):
                assert pf.left_deriv(t) <= pf.right_deriv(t) + 1e-10

    def test_smooth_point_left_equals_right(self):
        oracle, x, eta = rayleigh_ray(5, m=1)
        pf = RayObjective(oracle, x, eta)
        for t in (0.0, 0.4, 1.9):
            assert pf.left_deriv(t) == pytest.approx(pf.right_deriv(t),
                                                     abs=1e-8)

    def test_right_deriv_matches_fd_spd(self):
        # Exponential retraction: the transported direction is the exact
        # curve velocity, so a central difference of the ray values matches.
        oracle = r.generate_instance("karcher", 3, 4, seed=6)
        P = oracle.manifold
        rng = np.random.default_rng(7)
        x = P.random_point(rng)
        eta = P.random_tangent(x, rng)
        pf = RayObjective(oracle, x, eta)
        h = 1e-6
        for t in (0.2, 0.9):
            fd = (pf.value(t + h) - pf.value(t - h)) / (2 * h)
            assert abs(pf.right_deriv(t) - fd) <= 1e-4 * (1 + abs(fd))

    def test_right_deriv_matches_fd_sphere_with_speed_factor(self):
        # Projected retraction: the curve velocity is (eta - t ||eta||^2 x)
        # / ||x + t eta||^3, of norm ||eta|| / ||x + t eta||^2, while the
        # transported direction keeps norm ||eta||.  The finite difference
        # of the ray values therefore differs by the factor ||x + t eta||^2.
        oracle, x, eta = rayleigh_ray(8, m=1)
        pf = RayObjective(oracle, x, eta)
        h = 1e-6
        for t in (0.3, 1.2):
            c2 = float(np.dot(x.data + t * eta.data, x.data + t * eta.data))
            fd = (pf.value(t + h) - pf.value(t - h)) / (2 * h)
            assert abs(pf.right_deriv(t) - c2 * fd) <= 1e-4 * (1 + abs(fd))


class TestLineSearch:
    def test_descent_step_on_quadratic_sphere(self):
        oracle, x, eta = rayleigh_ray(9, m=1)
        pf = RayObjective(oracle, x, eta)
        res = line_search(pf, LineSearchConfig())
        assert res.t > 0
        assert res.phi_at_t < res.phi0
        assert r.same_point(res.x_new, r.retract(x, res.t * eta))

    def test_null_step_at_ray_stationary_point(self):
        p = np.array([[0.0, 0.0, 1.0]])
        oracle = r.GeometricMedian(2, 1, p, np.array([1.0]))
        S = r.Sphere(3)
        x = S.point(p[0])
        eta = S.tangent(x, [1.0, 0.0, 0.0])
        res = line_search(RayObjective(oracle, x, eta), LineSearchConfig())
        assert res.null and res.t == 0.0
        assert res.dminus0 <= 0.0 <= res.dplus0
        assert res.x_new is x

    def test_sign_symmetry(self):
        oracle, x, eta = rayleigh_ray(10)
        res_fwd = line_search(RayObjective(oracle, x, eta),
                              LineSearchConfig())
        res_bwd = line_search(RayObjective(oracle, x, -eta),
                              LineSearchConfig())
        assert res_fwd.sign == -res_bwd.sign
        assert res_bwd.t == -res_fwd.t
        assert res_bwd.phi_at_t == res_fwd.phi_at_t

    def test_descent_never_increases(self):
        for seed in range(30):
            kind = ("rayleigh", "median", "karcher")[seed % 3]
            oracle = r.generate_instance(kind, 3, 5, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = oracle.manifold.random_point(rng)
            xi = oracle.manifold.random_tangent(x, rng)
            eta = -1.0 * oracle.active_subgrad(x, xi)
            res = line_search(RayObjective(oracle, x, eta),
                              LineSearchConfig())
            assert res.phi_at_t <= res.phi0 + 1e-12 * (1 + abs(res.phi0))

    def test_bracket_first_order_conditions(self):
        # l'_-(tau_lo) <= tol and l'_+(tau_hi) >= -tol at termination
        for seed in range(20):
            oracle, x, eta = rayleigh_ray(seed, n=5, m=8)
            res = line_search(RayObjective(oracle, x, eta),
                              LineSearchConfig())
            if res.null:
                continue
            tol = 1e-6 * (1.0 + abs(res.dplus0))
            assert res.dminus_at_lo <= tol
            assert res.dplus_at_hi >= -tol

    def test_injectivity_clamp_on_sphere(self):
        oracle, x, _ = rayleigh_ray(11)
        rng = np.random.default_rng(12)
        eta = 10.0 * oracle.manifold.random_tangent(x, rng)
        g = oracle.active_subgrad(x, eta)
        eta = (-10.0 / r.norm(g)) * g  # descent direction with norm 10
        res = line_search(RayObjective(oracle, x, eta), LineSearchConfig())
        bound = np.pi / r.norm(eta)
        assert res.tau_hi_start <= bound
        assert abs(res.t) * r.norm(eta) <= np.pi

    def test_endpoint_subgradients_live_at_new_point(self):
        oracle, x, eta = rayleigh_ray(13)
        res = line_search(RayObjective(oracle, x, eta), LineSearchConfig())
        assert r.same_point(res.g_plus.base, res.x_new)
        assert r.same_point(res.g_minus.base, res.x_new)
        assert r.check_tangent(res.g_plus) and r.check_tangent(res.g_minus)

    def test_trace_records_emitted(self):
        oracle, x, eta = rayleigh_ray(14)
        trace = []
        line_search(RayObjective(oracle, x, eta), LineSearchConfig(),
                    trace=trace)
        assert trace
        assert {"i", "tau_lo", "tau", "tau_hi", "l_tau", "l_lo",
                "branch"} <= set(trace[0])


class GenericOnly:
    """Oracle proxy without ``restrict``: forces the generic ray path."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.manifold = oracle.manifold

    def value(self, x):
        return self.oracle.value(x)

    def dir_deriv(self, x, xi):
        return self.oracle.dir_deriv(x, xi)

    def active_subgrad(self, x, xi):
        return self.oracle.active_subgrad(x, xi)


def assert_restricted_matches_generic(oracle, x, v):
    """Closed-form values and slopes against the generic ray, both ways."""
    ray = oracle.restrict(x, v)
    pairs = [(RestrictedRayObjective(oracle, x, v), RayObjective(oracle, x, v)),
             (RestrictedRayObjective(oracle, x, -v, ray=ray.reversed()),
              RayObjective(oracle, x, -v))]
    for fast, ref in pairs:
        for t in (0.0, 0.3, 1.2, 4.0):
            assert fast.value(t) == pytest.approx(ref.value(t), rel=1e-10)
            assert fast.right_deriv(t) == pytest.approx(
                ref.right_deriv(t), rel=1e-10, abs=1e-12)
            assert fast.left_deriv(t) == pytest.approx(
                ref.left_deriv(t), rel=1e-10, abs=1e-12)


def random_descent_direction(oracle, x, seed):
    rng = np.random.default_rng(seed)
    xi = oracle.manifold.random_tangent(x, rng)
    return -1.0 * oracle.active_subgrad(x, xi)


def tied_rayleigh():
    """Rayleigh oracle whose components 0 and 1 tie at x, plus x and a v."""
    base = r.generate_instance("rayleigh", 3, 4, seed=70)
    S = base.manifold
    rng = np.random.default_rng(71)
    x = S.random_point(rng)
    xx = np.outer(x.data, x.data)
    mats = base.mats.copy()
    a = np.einsum("i,kij,j->k", x.data, mats, x.data)
    mats[1] += (a[0] - a[1]) * xx
    mats[:2] += 20.0 * xx
    return r.RayleighQuotientMax(3, 4, mats), x, S.random_tangent(x, rng)


def assert_ray_subgrads_match_oracle(oracle, x, v, ts=(0.0, 0.3, 1.2, 4.0)):
    """ray.subgrad(t, +/-) against active_subgrad at R_x(t v), both rays."""
    ray = oracle.restrict(x, v)
    for fast, w in ((ray, v), (ray.reversed(), -v)):
        for t in ts:
            y = r.retract(x, t * w)
            d = r.transport_between(x, y, w)
            for forward, xi in ((True, d), (False, -d)):
                got = fast.subgrad(t, forward)
                ref = oracle.active_subgrad(y, xi).data
                assert np.all(np.isfinite(got))
                assert np.linalg.norm(got - ref) \
                    <= 1e-10 * np.linalg.norm(ref) + 1e-12


class SpyOracle(GenericOnly):
    """Oracle proxy that counts value / dir_deriv / active_subgrad calls and
    passes ``restrict`` through."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.calls = {"value": 0, "dir_deriv": 0, "active_subgrad": 0}
        self.restrict = oracle.restrict

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def dir_deriv(self, x, xi):
        self.calls["dir_deriv"] += 1
        return super().dir_deriv(x, xi)

    def active_subgrad(self, x, xi):
        self.calls["active_subgrad"] += 1
        return super().active_subgrad(x, xi)


class TestRaySubgrad:
    @pytest.mark.parametrize("kind", ["rayleigh", "median", "karcher"])
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (4, 1), (4, 6)])
    def test_matches_oracle(self, kind, n, m):
        for seed in range(3):
            oracle = r.generate_instance(kind, n, m, seed=seed)
            rng = np.random.default_rng(120 + seed)
            x = oracle.manifold.random_point(rng)
            if kind == "karcher":
                v = oracle.manifold.random_tangent(x, rng)
            else:
                v = random_descent_direction(oracle, x, 130 + seed)
            assert_ray_subgrads_match_oracle(oracle, x, v)

    def test_rayleigh_tie_picks_the_oracle_component(self):
        # At the tie each direction selects a different active component,
        # the same one active_subgrad selects.
        oracle, x, v = tied_rayleigh()
        ray = oracle.restrict(x, v)
        grads = oracle._active(x.data)[1]
        picks = []
        for forward in (True, False):
            got = ray.subgrad(0.0, forward)
            picks.append(int(np.argmin(np.linalg.norm(grads - got, axis=1))))
        assert sorted(picks) == [0, 1]
        assert_ray_subgrads_match_oracle(oracle, x, v)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_median_singular_term(self, sign):
        # At a data point (or its antipode) the two directions differ by the
        # singular term 2 (w / ||d||) d, here of norm 2 w = 0.4.
        oracle = r.generate_instance("median", 3, 5, seed=72)
        S = oracle.manifold
        x = S.point(sign * oracle.points[2])
        v = S.random_tangent(x, np.random.default_rng(73))
        ray = oracle.restrict(x, v)
        jump = ray.subgrad(0.0, True) - ray.subgrad(0.0, False)
        assert np.linalg.norm(jump) == pytest.approx(0.4, rel=1e-12)
        assert_ray_subgrads_match_oracle(oracle, x, v)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_instead_of_non_finite_data(self):
        # Along V = X every eigenvalue of X^-1/2 V X^-1/2 is 1: at t = 2000
        # E B_i E underflows to 0 (finite), while W = X^1/2 Q e^(t/2)
        # overflows.
        oracle = r.generate_instance("karcher", 3, 4, seed=140)
        x = oracle.manifold.random_point(np.random.default_rng(141))
        ray = oracle.restrict(x, r.TangentVector(x, x.data))
        assert np.isfinite(ray.slopes(2000.0)[0])
        for forward in (True, False):
            with pytest.raises(r.NonFiniteRayError):
                ray.subgrad(2000.0, forward)

    def test_karcher_eigh_cache_stays_small(self):
        # slopes and subgrad share one eigh per t, but the ray keeps only the
        # t = 0 entry and the latest other t.
        oracle = r.generate_instance("karcher", 3, 5, seed=145)
        x = oracle.manifold.random_point(np.random.default_rng(146))
        ray = oracle.restrict(x, oracle.manifold.random_tangent(
            x, np.random.default_rng(147)))
        for t in (0.0, 0.5, 1.0, 2.0, 0.25):
            ray.slopes(t)
            ray.subgrad(t, True)
        assert sorted(ray._eig) == [0.0, 0.25]

    def test_subgrad_is_not_an_evaluation(self):
        oracle = r.generate_instance("median", 3, 4, seed=142)
        x = oracle.manifold.random_point(np.random.default_rng(143))
        v = random_descent_direction(oracle, x, 144)
        stats = r.EvalStats()
        pf = ray_objective(r.CountingOracle(oracle, stats), x, v)
        pf.subgrad_fwd(0.5), pf.subgrad_bwd(2.0)
        assert stats.nf == 0 and pf.evals == 0

    @pytest.mark.parametrize("kind", ["rayleigh", "median", "karcher"])
    def test_no_oracle_calls(self, kind):
        # A restricted line search asks the oracle nothing; a solve asks it
        # only for f and the first subgradient at x0.
        n, m = (3, 5) if kind == "karcher" else (4, 6)
        oracle = r.generate_instance(kind, n, m, seed=150)
        x0 = r.initial_point(kind, n, 150)
        eta = random_descent_direction(oracle, x0, 151)
        spy = SpyOracle(oracle)
        for v in (eta, -eta):
            line_search(ray_objective(spy, x0, v), LineSearchConfig())
        assert spy.calls == {"value": 0, "dir_deriv": 0, "active_subgrad": 0}
        res = r.conjugate_subgradient_solve(spy, x0,
                                            r.SolverConfig(max_iters=20),
                                            seed=150)
        assert res.ls_calls >= 1
        assert spy.calls == {"value": 1, "dir_deriv": 0, "active_subgrad": 1}

    def test_null_step_asks_the_oracle_nothing(self):
        p = np.array([[0.0, 0.0, 1.0]])
        spy = SpyOracle(r.GeometricMedian(2, 1, p, np.array([1.0])))
        S = r.Sphere(3)
        x = S.point(p[0])
        res = line_search(ray_objective(spy, x, S.tangent(x, [1.0, 0.0, 0.0])),
                          LineSearchConfig())
        assert res.null
        assert np.allclose(res.g_plus.data, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(res.g_minus.data, [-1.0, 0.0, 0.0], atol=1e-15)
        assert spy.calls == {"value": 0, "dir_deriv": 0, "active_subgrad": 0}


class TestRestrictedRay:
    @pytest.mark.parametrize("kind", ["rayleigh", "median"])
    @pytest.mark.parametrize("n,m", [(4, 6), (1, 5), (4, 1), (1, 1)])
    def test_matches_generic_ray(self, kind, n, m):
        for seed in range(3):
            oracle = r.generate_instance(kind, n, m, seed=seed)
            x = oracle.manifold.random_point(np.random.default_rng(50 + seed))
            v = random_descent_direction(oracle, x, 60 + seed)
            assert_restricted_matches_generic(oracle, x, v)

    def test_rayleigh_tied_active_components(self):
        # Components 0 and 1 tie at x with different gradients and dominate
        # the rest, so l'_-(0) < l'_+(0) on both paths.
        oracle, x, v = tied_rayleigh()
        idx, _ = oracle._active(x.data)
        assert list(idx) == [0, 1]
        pf = RestrictedRayObjective(oracle, x, v)
        assert pf.left_deriv(0.0) < pf.right_deriv(0.0) - 1e-3
        assert_restricted_matches_generic(oracle, x, v)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_median_at_data_point_and_antipode(self, sign):
        oracle = r.generate_instance("median", 3, 5, seed=72)
        S = oracle.manifold
        x = S.point(sign * oracle.points[2])
        v = S.random_tangent(x, np.random.default_rng(73))
        assert_restricted_matches_generic(oracle, x, v)

    def test_value_is_the_retraction_for_any_direction(self):
        # ||x + t v||^2 is expanded exactly, so the values follow the
        # projected retraction even for a v with a normal component.
        for kind in ("rayleigh", "median"):
            oracle = r.generate_instance(kind, 4, 6, seed=77)
            S = oracle.manifold
            rng = np.random.default_rng(78)
            x = S.random_point(rng)
            v = r.TangentVector(x, rng.standard_normal(5))
            ray = oracle.restrict(x, v)
            for w, fast in ((v, ray), (-v, ray.reversed())):
                for t in (0.3, 1.2, 4.0):
                    assert fast.value(t) == pytest.approx(
                        oracle.value(r.retract(x, t * w)), rel=1e-12)

    def test_right_deriv_matches_fd_with_speed_factor(self):
        # Slopes are taken along the transported direction: ||x + t v||^2
        # times the derivative of the closed-form ray values.
        for kind in ("rayleigh", "median"):
            oracle = r.generate_instance(kind, 4, 1, seed=74)
            x = oracle.manifold.random_point(np.random.default_rng(75))
            eta = random_descent_direction(oracle, x, 76)
            pf = RestrictedRayObjective(oracle, x, eta)
            h = 1e-6
            for t in (0.3, 1.2):
                c2 = float(np.dot(x.data + t * eta.data,
                                  x.data + t * eta.data))
                fd = (pf.value(t + h) - pf.value(t - h)) / (2 * h)
                assert abs(pf.right_deriv(t) - c2 * fd) <= 1e-4 * (1 + abs(fd))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (3, 1), (3, 5)])
    def test_karcher_matches_generic_ray(self, n, m):
        for seed in range(3):
            oracle = r.generate_instance("karcher", n, m, seed=seed)
            rng = np.random.default_rng(110 + seed)
            x = oracle.manifold.random_point(rng)
            v = oracle.manifold.random_tangent(x, rng)
            assert_restricted_matches_generic(oracle, x, v)

    def test_karcher_right_deriv_matches_fd(self):
        # The exponential map's velocity is the transported direction, so
        # the slopes are plain derivatives of the ray values (speed factor 1).
        oracle = r.generate_instance("karcher", 3, 5, seed=111)
        rng = np.random.default_rng(112)
        x = oracle.manifold.random_point(rng)
        pf = RestrictedRayObjective(oracle, x,
                                    oracle.manifold.random_tangent(x, rng))
        h = 1e-6
        for t in (0.0, 0.3, 1.2):
            fd = (pf.value(t + h) - pf.value(t - h)) / (2 * h)
            assert pf.left_deriv(t) == pf.right_deriv(t)
            assert abs(pf.right_deriv(t) - fd) <= 1e-6 * (1 + abs(fd))

    def test_line_search_matches_generic(self):
        cases = [(("rayleigh", "median")[seed % 2], 5, 8, seed)
                 for seed in range(10)]
        cases += [("karcher", n, m, seed)
                  for n, m in ((1, 1), (3, 5), (5, 50)) for seed in range(3)]
        for kind, n, m, seed in cases:
            oracle = r.generate_instance(kind, n, m, seed=seed)
            x = oracle.manifold.random_point(np.random.default_rng(80 + seed))
            eta = random_descent_direction(oracle, x, 90 + seed)
            if kind == "karcher":
                eta = (1.0 / r.norm(eta)) * eta
            for v in (eta, -eta):  # forward and mirrored searches
                fast = line_search(RestrictedRayObjective(oracle, x, v),
                                   LineSearchConfig())
                ref = line_search(RayObjective(oracle, x, v),
                                  LineSearchConfig())
                assert (fast.t, fast.sign, fast.evals, fast.irp_iters) == (
                    ref.t, ref.sign, ref.evals, ref.irp_iters)
                assert r.same_point(fast.x_new, ref.x_new)
                assert fast.phi_at_t == pytest.approx(ref.phi_at_t, rel=1e-12)
                for g, g_ref in ((fast.g_plus, ref.g_plus),
                                 (fast.g_minus, ref.g_minus)):
                    assert r.same_point(g.base, g_ref.base)
                    assert r.norm(g - g_ref) <= 1e-10 * r.norm(g_ref) + 1e-12
                assert fast.dplus_at_hi == pytest.approx(
                    ref.dplus_at_hi, rel=1e-10, abs=1e-12)
                assert fast.dminus_at_lo == pytest.approx(
                    ref.dminus_at_lo, rel=1e-10, abs=1e-12)


class TestRayObjectiveChoice:
    def test_sphere_oracles_get_the_restricted_ray(self):
        for kind in ("rayleigh", "median"):
            oracle = r.generate_instance(kind, 3, 4, seed=100)
            x = oracle.manifold.random_point(np.random.default_rng(101))
            v = random_descent_direction(oracle, x, 102)
            counting = r.CountingOracle(oracle, r.EvalStats())
            assert type(ray_objective(counting, x, v)) is \
                RestrictedRayObjective
            assert type(ray_objective(GenericOnly(oracle), x, v)) is \
                RayObjective

    def test_karcher_gets_the_restricted_ray(self):
        oracle = r.generate_instance("karcher", 3, 5, seed=106)
        counting = r.CountingOracle(oracle, r.EvalStats())
        assert hasattr(counting, "restrict")
        x0 = r.initial_point("karcher", 3, 106)
        v = random_descent_direction(oracle, x0, 107)
        assert type(ray_objective(counting, x0, v)) is RestrictedRayObjective
        assert type(ray_objective(GenericOnly(oracle), x0, v)) is RayObjective

    def test_restricted_values_count_one_evaluation_each(self):
        oracle = r.generate_instance("median", 3, 4, seed=103)
        x = oracle.manifold.random_point(np.random.default_rng(104))
        v = random_descent_direction(oracle, x, 105)
        stats = r.EvalStats()
        pf = ray_objective(r.CountingOracle(oracle, stats), x, v)
        pf.value(0.5), pf.value(0.5), pf.value(2.0)
        pf.right_deriv(0.5), pf.left_deriv(2.0)
        assert stats.nf == 2 and pf.evals == 2


@pytest.mark.parametrize("kind,n,m,rel", [("rayleigh", 50, 200, 1e-12),
                                          ("median", 100, 200, 1e-8)])
def test_whole_solve_matches_generic_path(kind, n, m, rel):
    # The benchmark's sphere sizes: same iterations, evaluations and stop
    # reason; f agrees to round-off (the median's arccos near +-1 amplifies
    # it over many nonsmooth iterations).
    cfg = r.SolverConfig(max_iters=500)
    for seed in range(3):
        oracle = r.generate_instance(kind, n, m, seed=seed)
        x0 = r.initial_point(kind, n, seed)
        fast = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=seed)
        ref = r.conjugate_subgradient_solve(GenericOnly(oracle), x0, cfg,
                                            seed=seed)
        assert (fast.iters, fast.nf, fast.stop_reason) == (
            ref.iters, ref.nf, ref.stop_reason)
        assert fast.f == pytest.approx(ref.f, rel=rel)


def test_karcher_whole_solve_matches_generic_path():
    # f agrees to round-off at every shared row.  The iteration count and
    # stop reason are not compared: once f reaches its floating-point floor
    # (4-5 iterations in), the length of the zero-step tail is decided by
    # round-off.  The generic path alone, run on the same data matrices in
    # reverse order (the same objective), moves seeds 0-4 from 20/60/25/58/15
    # to 86/24/78/85/68 iterations and flips 3 of the 5 stop reasons.
    for seed in range(5):
        oracle = r.generate_instance("karcher", 5, 50, seed=seed)
        x0 = r.initial_point("karcher", 5, seed)
        fast = r.conjugate_subgradient_solve(oracle, x0, seed=seed)
        ref = r.conjugate_subgradient_solve(GenericOnly(oracle), x0,
                                            seed=seed)
        for a, b in zip(fast.trajectory, ref.trajectory):
            assert a.f == pytest.approx(b.f, rel=1e-12)
        assert fast.f == pytest.approx(ref.f, rel=1e-12)
        assert {fast.stop_reason, ref.stop_reason} <= {"stationary",
                                                       "null_steps"}
        assert r.descent_violations(fast.trajectory) == 0
        assert r.norm_recursion_residual(fast.trajectory) <= 1e-6
