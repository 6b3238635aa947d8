import gc
import math
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcsopt as r
from rcsopt.linesearch import (IRP_FIELDS, LineSearchConfig,
                               LineSearchStallError, _clamped_start,
                               _fail_chain, _next_trial, irp, irp_records,
                               line_search)
from rcsopt.objectives import _ACTIVE_TOL, KarcherRay, MedianRay, RayleighRay

from oracles import (GenericOnly, SpyRay, line_searches,
                     rayleigh_active_components, tied_rayleigh)


class ScalarCurve:
    """Univariate test handle with one-sided derivatives."""

    def __init__(self, f, dplus, dminus=None):
        self.f = f
        self.dplus = dplus
        self.dminus = dminus or dplus

    def value(self, t):
        return self.f(t)

    def slopes(self, t):
        return self.dplus(t), self.dminus(t)


def quadratic_at(c):
    return ScalarCurve(lambda t: (t - c) ** 2, lambda t: 2 * (t - c))


def unclamped(cfg):
    """The start bracket of ``cfg`` with no injectivity clamp."""
    return cfg.tau_init, cfg.tau_hi_init


DEFAULT_START = unclamped(LineSearchConfig())


def curve_irp(l, cfg=LineSearchConfig(), start=DEFAULT_START, trace=None):
    """irp on a scalar curve, handed l(0) from the curve."""
    return irp(l, cfg, start, l.value(0.0), trace)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = LineSearchConfig()
        assert cfg.q == 0.33 and cfg.rho == 2.0 and cfg.interval_tol == 1e-6

    @pytest.mark.parametrize("kw", [
        dict(tau_init=-1.0), dict(tau_init=0.0), dict(tau_hi_init=0.5),
        dict(q=0.0), dict(q=0.5), dict(rho=1.0), dict(interval_tol=0.0),
        # A NaN compares false with every bound; it must still be rejected.
        dict(rho=math.nan), dict(interval_tol=math.nan),
        # An infinite width stop would make every search a zero step.
        dict(interval_tol=math.inf),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            LineSearchConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(max_iters=1.5), dict(max_iters=True), dict(max_null_steps=0),
        dict(max_null_steps=-3), dict(max_null_steps="a"),
        dict(max_null_steps=2.0), dict(epsilon_stop=math.nan),
        dict(epsilon_stop=math.inf),  # would stop every solve at once
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_invalid_solver_config_rejected(self, kw):
        # Each would pass the entry and fail or stop wrongly mid-solve.
        with pytest.raises(ValueError, match=next(iter(kw))):
            r.SolverConfig(**kw)

    @pytest.mark.parametrize("ls", [{"q": 0.1}, None, (1.0, 100.0)],
                             ids=["dict", "None", "tuple"])
    def test_solver_config_ls_must_be_a_line_search_config(self, ls):
        # Each would construct, then fail in the solve after the x0
        # evaluation, where the line search first reads ``cfg.ls``.
        with pytest.raises(TypeError, match="ls must be a LineSearchConfig"):
            r.SolverConfig(ls=ls)


class TestIRP:
    def test_smooth_quadratic(self):
        l = quadratic_at(2.0)
        tau, _, lo, hi, approx, iters = curve_irp(l)
        assert abs(tau - 2.0) <= 1e-6
        assert lo <= tau <= hi

    def test_vshape_kink(self):
        l = ScalarCurve(lambda t: abs(t - 2.0),
                        lambda t: 1.0 if t >= 2.0 else -1.0,
                        lambda t: 1.0 if t > 2.0 else -1.0)
        tau, _, lo, hi, approx, iters = curve_irp(l)
        assert abs(tau - 2.0) <= 1e-6

    def test_monotone_decreasing_runs_to_edge(self):
        l = ScalarCurve(lambda t: -t, lambda t: -1.0)
        tau, _, lo, hi, approx, iters = curve_irp(l)
        assert approx
        assert abs(tau - 100.0) <= 1e-4
        assert hi - lo <= 1e-6

    def test_unbounded_bracket_expands_then_converges(self):
        # With tau_hi = inf the trial grows as rho * max(tau_lo, 1) until an
        # upper bound appears, then the interval halves; parabola min at 50
        # is hit exactly by a midpoint, triggering the optimality return.
        l = quadratic_at(50.0)
        cfg = LineSearchConfig(tau_hi_init=math.inf)
        tau, _, lo, hi, approx, iters = curve_irp(l, cfg, unclamped(cfg))
        assert not approx
        assert tau == pytest.approx(50.0, abs=1e-6)

    def test_descent_region_below_resolution_returns_zero(self):
        # Descent exists only on (0, 1e-9): every probe fails, the upper
        # bound collapses, and the lower endpoint 0 is returned.
        l = ScalarCurve(lambda t: max(-1e-8 * t, t - 1.1e-9),
                        lambda t: -1e-8 if t < 1.0e-9 else 1.0)
        tau, _, lo, hi, approx, iters = curve_irp(l)
        assert approx
        assert tau == 0.0
        assert hi <= 2e-6

    def test_bracket_monotone_and_contracting(self):
        trace = []
        curve_irp(quadratic_at(7.3), trace=trace)
        q = 0.33
        prev = None
        upper_moved = False
        for rec in irp_records(trace):
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
            raw, curve = [], quadratic_at(target)
            tau_star, l_star, lo, hi, approx, iters = curve_irp(curve,
                                                                trace=raw)
            assert l_star == curve.value(tau_star)
            trace = list(irp_records(raw))
            assert [rec["i"] for rec in trace] == list(range(1, iters + 1))
            assert trace[-1]["branch"] == ends
            assert approx == (ends != "return")
            if not approx:
                assert (trace[-1]["tau"], trace[-1]["tau_lo"],
                        trace[-1]["tau_hi"]) == (tau_star, lo, hi)

    def test_each_trial_is_compared_with_l_at_tau_lo(self):
        # l(tau_lo) is kept across iterations, not re-read; it must follow
        # tau_lo through every lower move.
        for curve in (quadratic_at(7.3), quadratic_at(0.3),
                      ScalarCurve(lambda t: abs(t - 3.1),
                                  lambda t: 1.0 if t >= 3.1 else -1.0,
                                  lambda t: 1.0 if t > 3.1 else -1.0)):
            raw = []
            curve_irp(curve, trace=raw)
            trace = list(irp_records(raw))
            assert any(rec["branch"] == "lower" for rec in trace)
            for prev, rec in zip([None] + trace, trace):
                lo = 0.0 if prev is None else prev["tau_lo"]
                assert rec["l_lo"] == curve.value(lo)
                assert rec["l_tau"] == curve.value(rec["tau"])

    def test_iteration_cap_raises_with_bracket(self):
        l = ScalarCurve(lambda t: -t, lambda t: -1.0)
        cfg = LineSearchConfig(tau_hi_init=math.inf)
        with pytest.raises(LineSearchStallError) as exc:
            curve_irp(l, cfg, unclamped(cfg))
        assert exc.value.tau_lo > 0


def rayleigh_ray(seed=0, n=4, m=6, descent=True):
    oracle = r.generate_instance("rayleigh", n, m, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = oracle.manifold.random_point(rng)
    xi = oracle.manifold.random_tangent(x, rng)
    g = oracle.active_subgrad(x, xi)
    eta = -g if descent else g
    return oracle, x, eta


class TestRayObjective:
    """The objective on the ray, l(t) = f(R_x(t v)), as the search reads it:
    the oracle's ``restrict`` ray, with l(0) = f0 when it is handed on."""

    def test_value_at_zero_is_exact(self):
        oracle, x, eta = rayleigh_ray(1)
        f = oracle.value(x)
        assert line_search(oracle, x, eta, LineSearchConfig(), f0=f).phi0 == f
        # Unseeded, l(0) is read from the ray: exact on the generic ray, to
        # round-off on the closed-form one.
        assert line_search(GenericOnly(oracle), x, eta,
                           LineSearchConfig()).phi0 == f
        assert line_search(oracle, x, eta, LineSearchConfig()).phi0 \
            == pytest.approx(f, rel=1e-14)

    def test_value_matches_retract_bitwise(self):
        # The reference ray is the retraction itself, bit for bit; the
        # closed-form ray follows it to round-off (TestRestrictedRay).  The
        # search's l(t*) is the ray's value at its accepted point.
        oracle, x, eta = rayleigh_ray(2)
        ray = GenericOnly(oracle).restrict(x, eta)
        for t in (0.17, 1.3, 4.0):
            assert ray.value(t) == oracle.value(r.retract(x, t * eta))
        for v in (eta, -eta):
            res = line_search(GenericOnly(oracle), x, v, LineSearchConfig())
            assert res.t != 0.0
            assert res.phi_at_t == oracle.value(res.x_new)

    def test_constant_objective(self):
        oracle = r.RayleighQuotientMax(2, 1, np.eye(3)[None])
        S = r.Sphere(3)
        rng = np.random.default_rng(3)
        x = S.random_point(rng)
        ray = oracle.restrict(x, S.random_tangent(x, rng))
        assert all(ray.value(t) == pytest.approx(0.5, abs=1e-15)
                   for t in (0.0, 0.5, 2.0))

    def test_one_sided_derivatives_ordered(self):
        # left <= right along rays of a max-of-smooth objective
        for seed in range(20):
            oracle, x, eta = rayleigh_ray(seed)
            ray = oracle.restrict(x, eta)
            for t in (0.0, 0.3, 1.1, 2.7):
                dplus, dminus = ray.slopes(t)
                assert dminus <= dplus + 1e-10

    def test_smooth_point_left_equals_right(self):
        oracle, x, eta = rayleigh_ray(5, m=1)
        ray = oracle.restrict(x, eta)
        for t in (0.0, 0.4, 1.9):
            dplus, dminus = ray.slopes(t)
            assert dminus == pytest.approx(dplus, abs=1e-8)

    def test_right_deriv_matches_fd_spd(self):
        # Exponential retraction: the transported direction is the exact
        # curve velocity, so a central difference of the ray values matches.
        oracle = r.generate_instance("karcher", 3, 4, seed=6)
        P = oracle.manifold
        rng = np.random.default_rng(7)
        x = P.random_point(rng)
        eta = P.random_tangent(x, rng)
        ray = oracle.restrict(x, eta)
        h = 1e-6
        for t in (0.2, 0.9):
            fd = (ray.value(t + h) - ray.value(t - h)) / (2 * h)
            assert abs(ray.slopes(t)[0] - fd) <= 1e-4 * (1 + abs(fd))

    def test_right_deriv_matches_fd_sphere_with_speed_factor(self):
        # Projected retraction: the curve velocity is (eta - t ||eta||^2 x)
        # / ||x + t eta||^3, of norm ||eta|| / ||x + t eta||^2, while the
        # transported direction keeps norm ||eta||.  The finite difference
        # of the ray values therefore differs by the factor ||x + t eta||^2.
        oracle, x, eta = rayleigh_ray(8, m=1)
        ray = oracle.restrict(x, eta)
        h = 1e-6
        for t in (0.3, 1.2):
            c2 = float(np.dot(x.data + t * eta.data, x.data + t * eta.data))
            fd = (ray.value(t + h) - ray.value(t - h)) / (2 * h)
            assert abs(ray.slopes(t)[0] - c2 * fd) <= 1e-4 * (1 + abs(fd))


class TestLineSearch:
    def test_descent_step_on_quadratic_sphere(self):
        oracle, x, eta = rayleigh_ray(9, m=1)
        res = line_search(oracle, x, eta, LineSearchConfig())
        assert res.t > 0
        assert res.phi_at_t < res.phi0
        assert r.same_point(res.x_new, r.retract(x, res.t * eta))

    def test_null_step_at_ray_stationary_point(self):
        p = np.array([[0.0, 0.0, 1.0]])
        oracle = r.GeometricMedian(2, 1, p, np.array([1.0]))
        S = r.Sphere(3)
        x = S.point(p[0])
        eta = S.tangent(x, [1.0, 0.0, 0.0])
        res = line_search(oracle, x, eta, LineSearchConfig())
        assert res.sign == 0 and res.t == 0.0
        assert res.dminus0 <= 0.0 <= res.dplus0
        assert res.x_new is x

    def test_sign_symmetry(self):
        # A search along -eta is the search along eta, mirrored bit for bit:
        # its backward leg restricts the oracle to eta itself.
        for kind, seed in product(("rayleigh", "median", "karcher"),
                                  range(20)):
            oracle = r.generate_instance(kind, 3, 5, seed=seed)
            x = oracle.manifold.random_point(np.random.default_rng(200 + seed))
            eta = random_descent_direction(oracle, x, 300 + seed)
            fwd = line_search(oracle, x, eta, LineSearchConfig())
            bwd = line_search(oracle, x, -eta, LineSearchConfig())
            assert (fwd.sign, bwd.sign) == (1, -1)
            assert bwd.t == -fwd.t
            assert bwd.phi_at_t.hex() == fwd.phi_at_t.hex()
            assert bwd.evals == fwd.evals
            assert bwd.x_new.data.tobytes() == fwd.x_new.data.tobytes()
            assert bwd.g_plus.data.tobytes() == fwd.g_minus.data.tobytes()
            assert bwd.g_minus.data.tobytes() == fwd.g_plus.data.tobytes()

    def test_descent_never_increases(self):
        for seed in range(30):
            kind = ("rayleigh", "median", "karcher")[seed % 3]
            oracle = r.generate_instance(kind, 3, 5, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = oracle.manifold.random_point(rng)
            xi = oracle.manifold.random_tangent(x, rng)
            eta = -1.0 * oracle.active_subgrad(x, xi)
            res = line_search(oracle, x, eta, LineSearchConfig())
            assert res.phi_at_t <= res.phi0 + 1e-12 * (1 + abs(res.phi0))

    def test_bracket_first_order_conditions(self):
        # l'_-(tau_lo) <= tol and l'_+(tau_hi) >= -tol at termination
        for seed in range(20):
            oracle, x, eta = rayleigh_ray(seed, n=5, m=8)
            res = line_search(oracle, x, eta, LineSearchConfig())
            if res.sign == 0:
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
        res = line_search(oracle, x, eta, LineSearchConfig())
        bound = np.pi / r.norm(eta)
        assert res.tau_hi_start <= bound
        assert abs(res.t) * r.norm(eta) <= np.pi

    def test_clamped_start_is_a_pair_of_numbers(self):
        cfg = LineSearchConfig()
        assert _clamped_start(cfg, math.inf) == (1.0, 100.0)
        assert _clamped_start(cfg, 200.0) == (1.0, 100.0)
        hi = (np.pi / 10.0) * (1.0 - 1e-9)
        assert _clamped_start(cfg, np.pi / 10.0) == (0.5 * hi, hi)
        # Nothing of the bracket is left: the error names tau_max and the
        # direction norm, not the (valid) config.
        for bound in (0.0, 5e-324):
            with pytest.raises(ValueError, match=rf"tau_max = {bound!r}, .*"
                               "direction norm is infinite"):
                _clamped_start(cfg, bound)

    def test_infinite_direction_norm_is_named(self):
        oracle, x, v = rayleigh_ray(11)
        cfg = LineSearchConfig()
        with pytest.raises(ValueError, match="direction norm") as err:
            line_search(oracle, x, v, cfg, dir_norm=math.inf)
        assert "tau_init" not in str(err.value)

    def test_clamped_solve_builds_no_config(self, monkeypatch):
        cfg = r.SolverConfig(max_iters=30)
        built = []
        check = LineSearchConfig.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(LineSearchConfig, "__post_init__", counted)
        oracle = r.generate_instance("rayleigh", 5, 20, seed=14)
        with line_searches() as searches:
            res = r.conjugate_subgradient_solve(
                oracle, r.initial_point("rayleigh", 5, 14), cfg, seed=14)
        assert len(searches) == res.iters >= 1
        clamped = [ls for ls in searches
                   if ls.tau_hi_start < cfg.ls.tau_hi_init]
        assert clamped and built == []

    def test_endpoint_subgradients_live_at_new_point(self):
        oracle, x, eta = rayleigh_ray(13)
        res = line_search(oracle, x, eta, LineSearchConfig())
        assert r.same_point(res.g_plus.base, res.x_new)
        assert r.same_point(res.g_minus.base, res.x_new)
        assert r.check_tangent(res.g_plus) and r.check_tangent(res.g_minus)

    def test_trace_records_emitted(self):
        oracle, x, eta = rayleigh_ray(14)
        raw = []
        line_search(oracle, x, eta, LineSearchConfig(), trace=raw)
        trace = list(irp_records(raw))
        assert trace
        assert {"i", "tau_lo", "tau", "tau_hi", "l_tau", "l_lo",
                "branch"} <= set(trace[0])


def assert_restricted_matches_generic(oracle, x, v):
    """Closed-form values and slopes against the generic ray, both ways."""
    for w in (v, -v):
        fast = oracle.restrict(x, w)
        ref = GenericOnly(oracle).restrict(x, w)
        for t in (0.0, 0.3, 1.2, 4.0):
            assert fast.value(t) == pytest.approx(ref.value(t), rel=1e-10)
            assert fast.slopes(t) == pytest.approx(ref.slopes(t), rel=1e-10,
                                                   abs=1e-12)


def random_descent_direction(oracle, x, seed):
    rng = np.random.default_rng(seed)
    xi = oracle.manifold.random_tangent(x, rng)
    return -1.0 * oracle.active_subgrad(x, xi)


def assert_ray_subgrads_match_oracle(oracle, x, v, ts=(0.0, 0.3, 1.2, 4.0)):
    """ray.subgrad(t, +/-) against active_subgrad at R_x(t w), w = +/-v."""
    for w in (v, -v):
        fast = oracle.restrict(x, w)
        for t in ts:
            y = r.retract(x, t * w)
            d = r.transport_between(x, y, w)
            for forward, xi in ((True, d), (False, -d)):
                got = fast.subgrad(t, forward)
                ref = oracle.active_subgrad(y, xi).data
                assert np.all(np.isfinite(got))
                assert np.linalg.norm(got - ref) \
                    <= 1e-10 * np.linalg.norm(ref) + 1e-12


NO_CALLS = {"restrict": 0, "value": 0, "dir_deriv": 0, "active_subgrad": 0}


class SpyOracle(GenericOnly):
    """Oracle proxy that counts restrict / value / dir_deriv /
    active_subgrad calls; ``restrict`` hands out the oracle's own rays."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.calls = dict.fromkeys(NO_CALLS, 0)

    def restrict(self, x, v):
        self.calls["restrict"] += 1
        return self.oracle.restrict(x, v)

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
        _, grads = rayleigh_active_components(oracle, x)
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
        # The search reads its endpoint subgradients from the ray: only
        # the values it read are evaluations.
        spy = SpyRays(oracle)
        res = line_search(spy, x, v, LineSearchConfig())
        assert res.sign == 1 and spy.calls["subgrad"] == 2
        assert res.evals == spy.calls["value"] == res.irp_iters + 1

    @pytest.mark.parametrize("kind", ["rayleigh", "median", "karcher"])
    def test_no_oracle_calls(self, kind):
        # A line search asks the oracle for its ray only, and a backward
        # search for a second one along -v; a solve asks it besides only for
        # f and the first subgradient at x0.
        n, m = (3, 5) if kind == "karcher" else (4, 6)
        oracle = r.generate_instance(kind, n, m, seed=150)
        x0 = r.initial_point(kind, n, 150)
        eta = random_descent_direction(oracle, x0, 151)
        spy = SpyOracle(oracle)
        for v, sign, restricts in ((eta, 1, 1), (-eta, -1, 3)):
            res = line_search(spy, x0, v, LineSearchConfig())
            assert res.sign == sign
            assert spy.calls == {**NO_CALLS, "restrict": restricts}
        spy.calls = dict(NO_CALLS)
        with line_searches() as searches:
            res = r.conjugate_subgradient_solve(spy, x0,
                                                r.SolverConfig(max_iters=20),
                                                seed=150)
        assert res.iters >= 1
        rays = len(searches) + sum(ls.sign == -1 for ls in searches)
        assert spy.calls == {**NO_CALLS, "restrict": rays, "value": 1,
                             "active_subgrad": 1}

    def test_null_step_asks_the_oracle_nothing(self):
        p = np.array([[0.0, 0.0, 1.0]])
        spy = SpyOracle(r.GeometricMedian(2, 1, p, np.array([1.0])))
        S = r.Sphere(3)
        x = S.point(p[0])
        res = line_search(spy, x, S.tangent(x, [1.0, 0.0, 0.0]),
                          LineSearchConfig())
        assert res.sign == 0
        assert np.allclose(res.g_plus.data, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(res.g_minus.data, [-1.0, 0.0, 0.0], atol=1e-15)
        assert spy.calls == {**NO_CALLS, "restrict": 1}


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
        idx, _ = rayleigh_active_components(oracle, x)
        assert list(idx) == [0, 1]
        dplus, dminus = oracle.restrict(x, v).slopes(0.0)
        assert dminus < dplus - 1e-3
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
            for w in (v, -v):
                fast = oracle.restrict(x, w)
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
            ray = oracle.restrict(x, eta)
            h = 1e-6
            for t in (0.3, 1.2):
                c2 = float(np.dot(x.data + t * eta.data,
                                  x.data + t * eta.data))
                fd = (ray.value(t + h) - ray.value(t - h)) / (2 * h)
                assert abs(ray.slopes(t)[0] - c2 * fd) <= 1e-4 * (1 + abs(fd))

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
        ray = oracle.restrict(x, oracle.manifold.random_tangent(x, rng))
        h = 1e-6
        for t in (0.0, 0.3, 1.2):
            fd = (ray.value(t + h) - ray.value(t - h)) / (2 * h)
            dplus, dminus = ray.slopes(t)
            assert dminus == dplus
            assert abs(dplus - fd) <= 1e-6 * (1 + abs(fd))

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
                fast = line_search(oracle, x, v, LineSearchConfig())
                ref = line_search(GenericOnly(oracle), x, v,
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
    def test_restricted_values_count_one_evaluation_each(self):
        # The oracle's closed-form ray answers the search: one evaluation
        # per value read, slopes free.
        oracle = r.generate_instance("median", 3, 4, seed=103)
        x = oracle.manifold.random_point(np.random.default_rng(104))
        v = random_descent_direction(oracle, x, 105)
        assert type(oracle.restrict(x, v)) is r.objectives.MedianRay
        spy = SpyRays(oracle)
        res = line_search(spy, x, v, LineSearchConfig())
        assert spy.calls["slopes"] >= 2 and res.irp_iters >= 2
        assert res.evals == spy.calls["value"] == res.irp_iters + 1


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
        check = r.check_trajectory(fast.trajectory)
        assert check.descent_violations == 0
        assert check.norm_residual <= 1e-6


class TestBasePointAtRayEntry:
    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 20),
                                          ("karcher", 4, 10)])
    @pytest.mark.parametrize("restricted", [True, False])
    def test_mismatch_raised_before_any_work(self, kind, n, m, restricted):
        # v lives at another point: the ray objective refuses it before the
        # ray is built (closed-form or generic), so nothing is evaluated.
        oracle = r.generate_instance(kind, n, m, seed=3)
        M = oracle.manifold
        rng = np.random.default_rng(3)
        x, y = M.random_point(rng), M.random_point(rng)
        v = M.random_tangent(y, rng)
        spy = SpyOracle(oracle)
        restrict = oracle.restrict if restricted else GenericOnly(spy).restrict
        rays = []
        spy.restrict = lambda *a: rays.append(a) or restrict(*a)
        with pytest.raises(r.BasePointMismatchError):
            line_search(spy, x, v, LineSearchConfig())
        assert rays == []
        assert spy.calls == NO_CALLS


class TestFusedRayleighValue:
    @staticmethod
    def _cases():
        cases = [tied_rayleigh()]
        for n in (5, 50):
            oracle = r.generate_instance("rayleigh", n, 20, seed=160 + n)
            x = oracle.manifold.random_point(np.random.default_rng(n))
            cases.append((oracle, x, random_descent_direction(oracle, x, n)))
        return cases

    def test_value_is_the_max_of_the_components(self):
        ts = [0.0] + [2.0 ** -k for k in range(40)] \
            + list(np.random.default_rng(161).uniform(0.0, 100.0, 200))
        for oracle, x, v in self._cases():
            for w in (v, -v):
                fast = oracle.restrict(x, w)
                assert np.array_equal(2.0 * fast.a_half, fast.ax @ x.data)
                assert np.array_equal(fast.b, fast.ax @ w.data)
                for t in ts:
                    assert fast.value(t) == float(np.max(fast._vals(t)))
                    # The halved coefficients give the unhalved formula's bits.
                    ref = 0.5 * (2.0 * fast.a_half
                                 + t * (2.0 * fast.b + t * fast.c)) \
                        / fast._norm2(t)
                    assert np.array_equal(fast._vals(t), ref)


class IncreasingCurve(ScalarCurve):
    """l(t) = t, so every trial fails.  Its ``values`` records the chains
    the IRP hands it and answers them."""

    def __init__(self):
        super().__init__(lambda t: t, lambda t: 1.0)
        self.chains = []

    def values(self, ts):
        self.chains.append(list(ts))
        return list(ts)


def zero_step_searches(n=5, m=200, seed=3, iters=20):
    """(oracle, x, v, f0) of the line searches of a short rayleigh solve;
    at 5 x 200 most of them fail at every trial."""
    oracle = r.generate_instance("rayleigh", n, m, seed=seed)
    res = r.conjugate_subgradient_solve(
        oracle, r.initial_point("rayleigh", n, seed),
        r.SolverConfig(max_iters=iters), seed=seed, record=True)
    return [(oracle, row.x, row.eta, row.f) for row in res.trajectory[:-1]]


class KeptRays:
    """Oracle proxy that keeps each ray its ``restrict`` hands out."""

    def __init__(self, oracle):
        self.oracle, self.rays = oracle, []

    def restrict(self, x, v):
        self.rays.append(self.oracle.restrict(x, v))
        return self.rays[-1]


class RayRefs:
    """Oracle proxy that keeps a weak reference to each ray it hands out,
    and in ``alive`` how many of the earlier rays live at each
    ``restrict``."""

    def __init__(self, oracle):
        self.oracle, self.refs, self.alive = oracle, [], []

    def restrict(self, x, v):
        self.alive.append(sum(ref() is not None for ref in self.refs))
        ray = self.oracle.restrict(x, v)
        self.refs.append(weakref.ref(ray))
        return ray


class SpyRays:
    """Oracle proxy whose ``restrict`` hands out spied closed-form rays, all
    counting into one ``calls`` (``restrict`` too) and logging into one
    ``log``; ``hide`` as for :class:`SpyRay`."""

    def __init__(self, oracle, hide=()):
        self.oracle, self.hide = oracle, hide
        self.calls, self.log = Counter(), []

    def restrict(self, x, v):
        self.calls["restrict"] += 1
        return SpyRay(self.oracle.restrict(x, v), self.hide, self.calls,
                      self.log)


def spied_search(oracle, x, v, f0, hide=()):
    """A line search on spied closed-form rays (two for a backward search);
    (result, trace records, spy)."""
    spy = SpyRays(oracle, hide)
    trace = []
    res = line_search(spy, x, v, LineSearchConfig(), f0=f0, trace=trace)
    return res, list(irp_records(trace)), spy


class TestFailChain:
    @pytest.mark.parametrize("cfg, bound", [
        (LineSearchConfig(), math.inf),
        (LineSearchConfig(), np.pi / 10.0),  # clamped sphere start, |v| = 10
        (LineSearchConfig(tau_init=3.0, tau_hi_init=7.0, q=0.1,
                          interval_tol=1e-3), math.inf),
        (LineSearchConfig(q=0.45, interval_tol=1e-9), math.inf),
    ], ids=[f"cfg{i}" for i in range(4)])
    def test_chain_is_the_irp_trials_when_all_fail(self, cfg, bound):
        curve = IncreasingCurve()
        raw = []
        start = _clamped_start(cfg, bound)
        tau, _, lo, hi, approx, iters = curve_irp(curve, cfg, start, raw)
        trace = list(irp_records(raw))
        assert (tau, lo, approx) == (0.0, 0.0, True)
        assert all(rec["branch"] == "upper" for rec in trace)
        trials = [rec["tau"] for rec in trace]
        assert trials[0] == start[0]
        chain = _fail_chain(start[0], cfg)
        assert [t.hex() for t in trials[1:]] == [t.hex() for t in chain]
        # The IRP hands that chain to the hook once, after the first trial.
        assert curve.chains == [chain]

    def test_default_chain_halves_to_the_width_stop(self):
        assert _fail_chain(1.0, LineSearchConfig()) \
            == [2.0 ** -k for k in range(1, 21)]

    def test_no_chain_when_the_first_trial_decreases(self):
        curve = quadratic_at(2.0)
        curve.values = lambda ts: pytest.fail("no chain expected")
        curve_irp(curve)

    def test_rayleigh_values_match_value_bitwise(self):
        chain = _fail_chain(1.0, LineSearchConfig())
        samples = list(np.random.default_rng(170).uniform(0.0, 100.0, 60))
        for oracle, x, v in TestFusedRayleighValue._cases():  # tied first
            for w in (v, -v):
                fast = oracle.restrict(x, w)
                for ts in (chain, [0.0], samples, [0.0] + chain + samples):
                    got = fast.values(ts)
                    assert all(type(val) is float for val in got)
                    assert [val.hex() for val in got] \
                        == [fast.value(t).hex() for t in ts]

    def test_zero_step_search_is_one_value_and_one_batch(self):
        searches = [s for s in zero_step_searches()
                    if spied_search(*s)[0].t == 0.0]
        assert len(searches) >= 5
        for search in searches:
            res, trace, spy = spied_search(*search)
            assert spy.calls["value"] == 1 and spy.calls["values"] == 1
            assert res.evals == 21
            ref, ref_trace, ref_spy = spied_search(*search, hide={"values"})
            assert ref_spy.calls["value"] == 21 and ref_spy.calls["values"] == 0
            assert trace == ref_trace
            assert (res.t, res.evals, res.tau_hi_final) \
                == (ref.t, ref.evals, ref.tau_hi_final)

    def test_broken_chain_charges_only_what_was_read(self):
        # Searches whose first trial fails and a later one decreases: the
        # unread rest of the batch is not an evaluation.
        broken = 0
        for search in zero_step_searches(iters=30):
            res, trace, spy = spied_search(*search)
            ref, ref_trace, ref_spy = spied_search(*search, hide={"values"})
            assert trace == ref_trace
            assert res.evals == ref.evals == ref_spy.calls["value"]
            assert res.t == ref.t and res.x_new.data.tobytes() \
                == ref.x_new.data.tobytes()
            if trace[0]["branch"] == "upper" and res.t != 0.0:
                broken += 1
                assert spy.calls["values"] == 1
        assert broken >= 3

    def test_ray_objective_is_freed_without_gc(self):
        # The search must not tie its ray into a reference cycle: the ray's
        # (m, n+1) products would then wait for a gc pass.  A backward
        # search drops the forward ray before it restricts again, so at
        # most one ray is alive.
        oracle, x, v, f0 = zero_step_searches(iters=2)[0]
        gc.disable()
        try:
            for w, sign in ((v, 1), (-1.0 * v, -1)):
                rays = RayRefs(oracle)
                res = line_search(rays, x, w, LineSearchConfig(), f0=f0)
                assert res.sign == sign
                assert rays.alive == [0] * (1 + (sign < 0))
                assert all(ref() is None for ref in rays.refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind,n,m", [("median", 4, 6), ("karcher", 3, 5)])
    def test_other_rays_make_no_batch(self, kind, n, m):
        oracle = r.generate_instance(kind, n, m, seed=175)
        x = oracle.manifold.random_point(np.random.default_rng(176))
        v = random_descent_direction(oracle, x, 177)
        for w in (v, -1.0 * v):
            res, trace, spy = spied_search(oracle, x, w, oracle.value(x))
            assert spy.calls["values"] == 0
            assert spy.calls["value"] == res.evals


class ScriptedRay:
    """Ray whose trials on the default all-fail chain 2^-1 ... 2^-20 fail
    except at the chain indices in ``drops``, where the value falls below
    l(0) and the slopes send the IRP to ``modes[k]`` ("upper", "lower" or
    "return").  The first trial (t = 1) fails; elsewhere off the chain the
    value and slopes follow fixed curves."""

    def __init__(self, f0, drops, modes):
        self.f0, self.drops, self.modes = f0, set(drops), modes

    def _index(self, t):
        # t = 2^-k exactly gives m = 0.5, e = 1 - k: chain index k - 1 = -e.
        m, e = math.frexp(t)
        return -e if m == 0.5 and 0 <= -e <= 19 else None

    def value(self, t):
        if t == 0.0:
            return self.f0
        k = self._index(t)
        if k is None:
            return self.f0 + t if t >= 1.0 \
                else self.f0 - 0.5 + math.sin(37.0 * t)
        return self.f0 - 1.0 - t if k in self.drops else self.f0 + t

    def values(self, ts):
        return [self.value(t) for t in ts]

    def slopes(self, t):
        k = self._index(t)
        if k is None or k not in self.drops:
            s = math.cos(53.0 * t)
            return s, s - 0.25
        return {"upper": (1.0, 1.0), "lower": (-1.0, -1.0),
                "return": (1.0, -1.0)}[self.modes[k]]


def scripted_irp(drops, modes, hide=()):
    """irp on a spied ScriptedRay, handed l(0); (result, trace, evals,
    spy calls), where the evaluations are the trials."""
    spy = SpyRay(ScriptedRay(2.0, drops, modes), hide)
    trace = []
    out = irp(spy, LineSearchConfig(), DEFAULT_START, 2.0, trace)
    return out, trace, out[-1], spy.calls


_MODES = st.lists(st.sampled_from(["upper", "lower", "return"]),
                  min_size=20, max_size=20)


class TestChainProperties:
    @settings(max_examples=300, deadline=None)
    @given(q=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           tol=st.floats(5e-324, 1.0),
           tau_hi=st.floats(5e-324, 1e6),
           dir_norm=st.one_of(st.none(), st.floats(1e-3, 1e6)))
    @example(q=0.33, tol=1e-6, tau_hi=1e-6, dir_norm=None)   # empty chain
    @example(q=0.33, tol=1e-6, tau_hi=1e-7, dir_norm=None)
    @example(q=0.49999999999999994, tol=5e-324, tau_hi=3e-323,
             dir_norm=None)
    def test_closed_form_is_the_iterated_update(self, q, tol, tau_hi,
                                                dir_norm):
        cfg = LineSearchConfig(q=q, interval_tol=tol)
        if dir_norm is not None:
            # A clamped sphere start: the chain follows the first trial.
            tau_hi, _ = _clamped_start(cfg, np.pi / dir_norm)
        ref, hi = [], tau_hi
        while hi > tol:
            hi = _next_trial(0.0, hi, cfg)
            ref.append(hi)
        assert [t.hex() for t in _fail_chain(tau_hi, cfg)] \
            == [t.hex() for t in ref]

    @settings(max_examples=150, deadline=None)
    @given(drops=st.sets(st.integers(0, 19), max_size=6), modes=_MODES)
    @example(drops={0}, modes=["upper"] * 20)      # breaks at the first
    @example(drops={9}, modes=["lower"] * 20)      # ... a middle
    @example(drops={19}, modes=["return"] * 20)    # ... the last trial
    @example(drops=set(), modes=["upper"] * 20)    # never breaks
    @example(drops={3, 4, 11}, modes=["upper"] * 20)
    def test_batched_walk_matches_single_values(self, drops, modes):
        out, raw, evals, calls = scripted_irp(drops, modes)
        ref, ref_raw, ref_evals, ref_calls = scripted_irp(
            drops, modes, hide={"values"})
        trace = list(irp_records(raw))
        ref_trace = list(irp_records(ref_raw))
        assert out == ref and trace == ref_trace
        assert evals == ref_evals
        # The trials on the chain (up to the first that leaves it) read the
        # batch; the first trial and any after that read single values.
        rest = [rec["branch"] for rec in trace[1:]]
        on_chain = next((j + 1 for j, b in enumerate(rest) if b != "upper"),
                        len(rest))
        assert calls["values"] == 1 and ref_calls["values"] == 0
        assert calls["value"] == ref_calls["value"] - on_chain
        assert ref_calls["value"] == ref_evals  # l(0) is given, not read
        # Batched or not, the trace is one IRP_FIELDS tuple per trial, the
        # same tuples in the same order.
        assert raw == ref_raw
        assert all(type(e) is tuple and len(e) == len(IRP_FIELDS)
                   for e in raw)
        assert all(tuple(rec) == IRP_FIELDS for rec in trace)
        if not drops:  # never breaks: the first trial, then a run of 20
            assert len(raw) == 21

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
           m=st.integers(1, 60), scale=st.floats(0.05, 20.0))
    def test_real_rays_forward_and_mirrored(self, seed, n, m, scale):
        oracle = r.generate_instance("rayleigh", n, m, seed=seed)
        x = oracle.manifold.random_point(np.random.default_rng(seed))
        v = scale * random_descent_direction(oracle, x, seed + 1)
        f0 = oracle.value(x)
        for w in (v, -1.0 * v):  # -v gives the mirrored search
            res, trace, spy = spied_search(oracle, x, w, f0)
            ref, ref_trace, ref_spy = spied_search(oracle, x, w, f0,
                                                   hide={"values"})
            assert trace == ref_trace
            assert res.evals == ref.evals == ref_spy.calls["value"]
            assert (res.t, res.irp_iters, res.tau_hi_final) \
                == (ref.t, ref.irp_iters, ref.tau_hi_final)
            assert res.x_new.data.tobytes() == ref.x_new.data.tobytes()
            assert spy.calls["values"] <= 1


def _tie_path(ray, t):
    """RayleighRay's slopes and both subgradients at t on arrays over the
    active set, as computed for ties; (active count, slopes, subgrads)."""
    vals = ray._vals(t)
    fmax = np.max(vals)
    idx = np.flatnonzero(vals >= fmax - _ACTIVE_TOL * (1.0 + abs(fmax)))
    s = (ray.b[idx] + t * ray.c[idx]) \
        - 2.0 * vals[idx] * (ray.xv + t * ray.vv)
    rr = np.sqrt(ray._norm2(t))
    y = (ray.x + t * ray.v) / rr
    subs = []
    for forward in (True, False):
        i = idx[np.argmax(s) if forward else np.argmin(s)]
        subs.append((ray.ax[i] + t * ray.av[i]) / rr - 2.0 * vals[i] * y)
    return len(idx), (float(np.max(s)), float(np.min(s))), subs


class TestRayleighScalarPath:
    def test_single_active_matches_the_array_path(self):
        ts = [0.0, 1e-6, 2.0 ** -7, 0.3, 1.0, 7.5, 80.0]
        single = ties = 0
        for oracle, x, v in TestFusedRayleighValue._cases():  # tied first
            for w in (v, -v):
                fast = oracle.restrict(x, w)
                for t in ts:
                    count, slopes, subs = _tie_path(fast, t)
                    single += count == 1
                    ties += count > 1
                    got = fast.slopes(t)
                    assert [s.hex() for s in got] == [s.hex() for s in slopes]
                    assert all(type(s) is float for s in got)
                    for forward, ref in zip((True, False), subs):
                        assert fast.subgrad(t, forward).tobytes() \
                            == ref.tobytes()
                    # A NumPy scalar step takes the same path, with the
                    # same values and Python-float slopes.
                    fresh = oracle.restrict(x, w)
                    t64 = np.float64(t)
                    got64 = fresh.slopes(t64)
                    assert [s.hex() for s in got64] == [s.hex() for s in got]
                    assert all(type(s) is float for s in got64)
                    for forward, ref in zip((True, False), subs):
                        assert fresh.subgrad(t64, forward).tobytes() \
                            == ref.tobytes()
        assert single >= 20 and ties >= 2

    def test_zero_direction_with_one_active_component(self):
        oracle = r.generate_instance("rayleigh", 4, 6, seed=3)
        x = oracle.manifold.random_point(np.random.default_rng(4))
        zero = oracle.manifold.zero_tangent(x)
        want = oracle.active_subgrad(x, zero).data
        for t in (0.0, np.float64(0.0)):
            ray = oracle.restrict(x, zero)
            assert ray.vv == 0.0
            for forward in (True, False):
                assert ray.subgrad(t, forward).tobytes() == want.tobytes()


class TestRayMemo:
    # Each ray's per-step computation, which it calls through _memoize.
    STEP = {"rayleigh": (RayleighRay, "_active_slopes_at"),
            "median": (MedianRay, "_cosines_at"),
            "karcher": (KarcherRay, "_eigh_at")}

    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 200),
                                          ("median", 4, 6),
                                          ("karcher", 3, 5)])
    def test_memo_stays_small_after_a_search(self, kind, n, m, monkeypatch):
        # The memo keeps t = 0 and one other step, and it drops the other
        # step before it computes the next: a step t != 0 is computed
        # beside the t = 0 entry at most, never beside a third state.
        cls, name = self.STEP[kind]
        step, seen = getattr(cls, name), []

        def spy(ray, t):
            seen.append((t, set(ray._eig if kind == "karcher" else ray._memo)))
            return step(ray, t)

        monkeypatch.setattr(cls, name, spy)
        for seed in range(3):
            oracle = r.generate_instance(kind, n, m, seed=180 + seed)
            x = oracle.manifold.random_point(np.random.default_rng(seed))
            v = random_descent_direction(oracle, x, 185 + seed)
            kept = KeptRays(oracle)
            res = line_search(kept, x, v, LineSearchConfig())
            [ray] = kept.rays
            memo = ray._eig if kind == "karcher" else ray._memo
            assert 1 <= len(memo) <= 2 and 0.0 in memo
            assert set(memo) <= {0.0, res.tau_hi_final, res.tau_lo_final}
        beside = [memo for t, memo in seen if t != 0.0]
        assert beside and all(memo <= {0.0} for memo in beside), seen

    @pytest.mark.parametrize("kind", ["rayleigh", "median"])
    def test_interleaved_calls_match_a_fresh_ray(self, kind):
        oracle = r.generate_instance(kind, 4, 6, seed=190)
        x = oracle.manifold.random_point(np.random.default_rng(191))
        v = random_descent_direction(oracle, x, 192)
        ray = oracle.restrict(x, v)
        calls = [("value", ()), ("slopes", ()), ("subgrad", (True,)),
                 ("subgrad", (False,))]
        ts = (0.0, 0.5, 0.5, 1.2, 0.0, 0.5, 3.0, 1.2, 0.0)
        for i, t in enumerate(ts):
            for name, extra in calls[i % 4:] + calls[:i % 4]:
                got = getattr(ray, name)(t, *extra)
                want = getattr(oracle.restrict(x, v), name)(t, *extra)
                assert np.array_equal(got, want), (name, t)
            assert len(ray._memo) <= 2


def returned_step(kind):
    """(oracle, x, v) whose search returns at a trial with 0 between the
    one-sided slopes: a tie of the Rayleigh max, the median's data point,
    or the Karcher minimizer, reached exactly."""
    if kind == "rayleigh":
        # max(y_1^2, y_2^2) on y(t) ~ (0.8 - 0.6 t, t, 0.6 + 0.8 t): the two
        # components tie at t = 1/2, the second trial (f rises at the first,
        # t = 1, which becomes tau_hi).
        mats = np.zeros((2, 3, 3))
        mats[0, 0, 0] = mats[1, 1, 1] = 2.0
        oracle = r.RayleighQuotientMax(2, 2, mats)
        x, v = [0.8, 0.0, 0.6], [-0.6, 1.0, 0.8]
    elif kind == "median":
        # The one data point is y(1), the first trial.
        oracle = r.GeometricMedian(2, 1, np.array([[1.0, 1.0, 0.0]])
                                   / math.sqrt(2.0), np.array([1.0]))
        x, v = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    else:
        # X(1) = exp(2 ln 2) = 4 = A_1: log 1 = 0, so both slopes are 0.
        oracle = r.SpdCenterOfMass(1, 1, np.array([[[4.0]]]))
        x, v = [[1.0]], [[2.0 * math.log(2.0)]]
    M = oracle.manifold
    x = M.point(np.array(x))
    return oracle, x, M.tangent(x, v)


def tail_cases(kind):
    """(label, oracle, x, v) of a null step, a zero step, a width-stopped
    moving step, a returned step and a backward search on one ray kind."""
    n, m = (3, 5) if kind == "karcher" else (4, 6)
    oracle = r.generate_instance(kind, n, m, seed=200)
    x = oracle.manifold.random_point(np.random.default_rng(201))
    v = random_descent_direction(oracle, x, 202)
    # Scaled up, every trial fails (on the sphere, the injectivity clamp
    # makes the start bracket narrower than the width stop).
    return [("null", oracle, x, 0.0 * v),
            ("zero", oracle, x, (1e7 / r.norm(v)) * v),
            ("width", oracle, x, v),
            ("return", *returned_step(kind)),
            ("backward", oracle, x, -1.0 * v)]


class TestLineSearchTail:
    CASES = {"null": lambda res: res.sign == 0,
             "zero": lambda res: res.sign == 1
             and res.t == 0.0 < res.tau_hi_final,
             "width": lambda res: res.sign == 1 and res.approximate
             and res.t > 0.0,
             "return": lambda res: res.sign == 1 and not res.approximate,
             "backward": lambda res: res.sign == -1}

    @pytest.mark.parametrize("kind", ["rayleigh", "median", "karcher"])
    def test_each_endpoint_is_retracted_and_computed_once(self, kind,
                                                          monkeypatch):
        # The tail of a search, after the IRP (or after the start bracket
        # of a null step), retracts each distinct nonzero step among t,
        # tau_lo and tau_hi once, and the slopes and subgradient at an
        # endpoint share one per-step computation of the ray.
        cases = tail_cases(kind)
        log = []
        cls, name = TestRayMemo.STEP[kind]
        step = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda ray, t: log.append(("step", t))
                            or step(ray, t))
        manifold = r.SPD if kind == "karcher" else r.Sphere
        retract = manifold._retract
        monkeypatch.setattr(manifold, "_retract",
                            lambda M, x, v: log.append(("retract", None))
                            or retract(M, x, v))
        for hook in ("irp", "_clamped_start"):
            fn = getattr(r.linesearch, hook)
            monkeypatch.setattr(
                r.linesearch, hook,
                lambda *a, fn=fn: (fn(*a), log.append(("tail", None)))[0])
        for label, oracle, x, v in cases:
            log.clear()
            res = line_search(oracle, x, v, LineSearchConfig())
            assert self.CASES[label](res), label
            ends = {res.tau_lo_final, res.tau_hi_final}
            assert log.count(("retract", None)) == len({abs(res.t), *ends}
                                                       - {0.0}), label
            tail = log[len(log) - log[::-1].index(("tail", None)):]
            done = [t for event, t in tail if event == "step"]
            assert len(done) == len(set(done)) and set(done) <= ends, \
                (label, tail)


def chain_cases():
    """(label, oracle, x, v) of two rayleigh searches whose first trial
    fails: on "chain" every later trial fails too, on "later" one
    decreases."""
    found = {}
    for oracle, x, v, f0 in zero_step_searches(iters=30):
        res, trace, _ = spied_search(oracle, x, v, f0)
        if trace and trace[0]["l_tau"] >= trace[0]["l_lo"]:
            found.setdefault("later" if res.t else "chain", (oracle, x, v))
    return [(label, *found[label]) for label in ("chain", "later")]


class TestSearchWork:
    CASES = {**TestLineSearchTail.CASES,
             "chain": lambda res: res.sign == 1 and res.t == 0.0
             and res.irp_iters == 21,
             "later": lambda res: res.sign == 1 and res.t > 0.0}

    @pytest.mark.parametrize("seeded", [True, False])
    @pytest.mark.parametrize("kind", ["rayleigh", "median", "karcher"])
    def test_evaluations_are_the_trials(self, kind, seeded):
        # A search reads l(t) once per trial, each trial at its own step,
        # and l(0) only when f0 is not given: so its evaluations are its
        # trials, plus one without f0.  The ray's ``value`` calls are those
        # reads, less the trials a batched chain answers.
        cases = tail_cases(kind)
        hides = [()]
        if kind == "rayleigh":
            cases += chain_cases()
            hides.append({"values"})
        for (label, oracle, x, v), hide in product(cases, hides):
            f0 = oracle.value(x) if seeded else None
            spy, raw = SpyRays(oracle, hide), []
            res = line_search(spy, x, v, LineSearchConfig(), f0=f0,
                              trace=raw)
            assert self.CASES[label](res), label
            trace = list(irp_records(raw))
            trials = [rec["tau"] for rec in trace]
            assert res.evals == res.irp_iters + (not seeded) \
                == len(trials) + (not seeded), label
            assert len(set(trials)) == len(trials) and 0.0 not in trials, label
            steps = [args[0] for name, *args in spy.log if name == "value"]
            # A failed first trial hands the rest of the all-fail chain to
            # ``values``, which answers the trials up to the first that
            # leaves the chain; ``value`` reads every other trial, once.
            batched = "values" not in hide and kind == "rayleigh" \
                and bool(trace) and trace[0]["l_tau"] >= trace[0]["l_lo"]
            on_chain = next((j + 1 for j, rec in enumerate(trace[1:])
                             if rec["branch"] != "upper"), len(trace) - 1) \
                if batched else 0
            assert spy.calls["values"] == batched, label
            assert steps == ([] if seeded else [0.0]) + trials[:1] \
                + trials[1 + on_chain:], label
            assert spy.calls["restrict"] == 1 + (res.sign < 0), label
