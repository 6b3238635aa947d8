import tracemalloc
from collections import Counter

import numpy as np
import pytest

import rcsopt as r
from rcsopt.solver import _cos2

from oracles import geodesic_grid_min, grid_min_norm_alpha
from test_linesearch import SpyRay

SOLVERS = [r.conjugate_subgradient_solve, r.subgradient_descent_solve]


def update(g, d):
    """``direction_update`` on tangent vectors at one point, wrapped back."""
    eta, alpha = r.direction_update(g.data, d.data, r.inner(g, g),
                                    r.inner(d, d))
    return r.TangentVector(g.base, eta), alpha


def cos2_theta(g, d):
    """The solver's cos^2 on tangent vectors at one point."""
    x = g.base
    return _cos2(x.manifold._inner, x.data, g.data, d.data, r.inner(g, g),
                 r.inner(d, d))


def transported(prev, row):
    """The direction d that produced ``row``: prev.eta carried to row.x."""
    return r.transport_between(prev.x, row.x, prev.eta)


def solve_small(kind, n, m, seed, record=False, **cfg_kw):
    oracle = r.generate_instance(kind, n, m, seed=seed)
    x0 = r.initial_point(kind, n, seed)
    cfg = r.SolverConfig(**cfg_kw) if cfg_kw else None
    return oracle, r.conjugate_subgradient_solve(oracle, x0, cfg, seed=seed,
                                                 record=record)


class TestSelectLambda:
    def test_symmetric(self):
        assert r.select_lambda(1.0, -1.0) == 0.5

    def test_direct_formula(self):
        assert r.select_lambda(3.0, -1.0) == 0.75

    def test_equal_inner_products(self):
        assert r.select_lambda(2.0, 2.0) == 0.5
        assert r.select_lambda(0.0, 0.0) == 0.5

    def test_clamped_into_unit_interval(self):
        assert r.select_lambda(-1.0, -3.0) == 0.0
        assert r.select_lambda(3.0, 1.0) == 1.0

    def test_orthogonality_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ip_m = -rng.uniform(0.0, 5.0)
            ip_p = rng.uniform(0.0, 5.0)
            lam = r.select_lambda(ip_p, ip_m)
            assert lam * ip_m + (1 - lam) * ip_p == pytest.approx(0.0,
                                                                  abs=1e-12)


class TestCombineSubgradient:
    def setup_method(self):
        S = r.Sphere(4)
        rng = np.random.default_rng(1)
        self.x = S.random_point(rng)
        self.gp = S.random_tangent(self.x, rng, unit=False)
        self.gm = S.random_tangent(self.x, rng, unit=False)

    def test_endpoints(self):
        assert np.array_equal(
            r.combine_subgradient(self.gp, self.gm, 0.0).data, self.gp.data)
        assert np.array_equal(
            r.combine_subgradient(self.gp, self.gm, 1.0).data, self.gm.data)

    def test_identical_inputs(self):
        for lam in (0.0, 0.3, 1.0):
            out = r.combine_subgradient(self.gp, self.gp, lam)
            assert np.allclose(out.data, self.gp.data, atol=1e-15)


class TestDirectionUpdate:
    def test_equal_norms(self):
        S = r.Sphere(4)
        rng = np.random.default_rng(2)
        x = S.random_point(rng)
        g = S.random_tangent(x, rng)
        d = S.random_tangent(x, rng)
        eta, alpha = update(g, d)
        assert alpha == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(eta.data, 0.5 * (d.data - g.data), atol=1e-14)

    def test_zero_gtilde_stops(self):
        S = r.Sphere(4)
        rng = np.random.default_rng(3)
        x = S.random_point(rng)
        d = S.random_tangent(x, rng)
        eta, alpha = update(S.zero_tangent(x), d)
        assert alpha == 1.0
        assert r.norm(eta) == 0.0

    def test_zero_d(self):
        # alpha = 0 and eta_new = (1 - alpha) d = 0: degenerate stop signal
        S = r.Sphere(4)
        rng = np.random.default_rng(4)
        x = S.random_point(rng)
        g = S.random_tangent(x, rng)
        eta, alpha = update(g, S.zero_tangent(x))
        assert alpha == 0.0
        assert r.norm(eta) == 0.0

    def test_both_zero(self):
        S = r.Sphere(4)
        x = S.random_point(np.random.default_rng(5))
        z = S.zero_tangent(x)
        eta, alpha = update(z, z)
        assert r.norm(eta) == 0.0

    def test_minimum_norm_vs_grid_oracle(self):
        S = r.Sphere(5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = S.random_point(rng)
            d = rng.uniform(0.2, 3.0) * S.random_tangent(x, rng)
            g = rng.uniform(0.2, 3.0) * S.random_tangent(x, rng)
            g = g - (r.inner(g, d) / r.inner(d, d)) * d  # enforce g _|_ d
            eta, alpha = update(g, d)
            a_star, v_star = grid_min_norm_alpha(g, d)
            assert alpha == pytest.approx(a_star, abs=1e-5)
            assert r.norm(eta) <= v_star + 1e-10

    def test_harmonic_norm_identity(self):
        S = r.Sphere(5)
        rng = np.random.default_rng(7)
        x = S.random_point(rng)
        d = 2.0 * S.random_tangent(x, rng)
        g = 0.7 * S.random_tangent(x, rng)
        g = g - (r.inner(g, d) / r.inner(d, d)) * d
        eta, _ = update(g, d)
        ng2, nd2 = r.inner(g, g), r.inner(d, d)
        assert r.inner(eta, eta) == pytest.approx(ng2 * nd2 / (ng2 + nd2),
                                                  rel=1e-12)


class TestConjugateSubgradientSolve:
    def test_rayleigh_single_matrix_reaches_min_eigenvalue(self):
        A = np.diag([3.0, 1.0, 1.0])
        oracle = r.RayleighQuotientMax(2, 1, A[None])
        x0 = r.Sphere(3).random_point(np.random.default_rng(8))
        res = r.conjugate_subgradient_solve(oracle, x0, seed=8)
        assert res.f == pytest.approx(0.5, abs=1e-6)
        assert abs(res.x.data[0]) < 1e-3  # minimizer in the e2/e3 plane

    def test_karcher_single_matrix_recovers_it(self):
        P = r.SPD(4)
        a = P.random_point(np.random.default_rng(9)).data
        oracle = r.SpdCenterOfMass(4, 1, a[None])
        x0 = P.random_point(np.random.default_rng(10))
        res = r.conjugate_subgradient_solve(oracle, x0, seed=10)
        assert res.f <= 1e-8
        assert r.distance(res.x, P.point(a)) <= 1e-4

    def test_median_two_points_matches_geodesic_grid(self):
        rng = np.random.default_rng(11)
        S = r.Sphere(4)
        a, b = S.random_point(rng), S.random_point(rng)
        assert np.dot(a.data, b.data) > -0.9  # antipodal-free
        pts = np.stack([a.data, b.data])
        oracle = r.GeometricMedian(3, 2, pts, np.array([0.5, 0.5]))
        x0 = S.random_point(rng)
        res = r.conjugate_subgradient_solve(oracle, x0, seed=11)
        grid = geodesic_grid_min(oracle, a, b, samples=100_000)
        assert res.f <= grid + 1e-6

    def test_monotone_descent_all_families(self):
        for kind, seed in (("rayleigh", 12), ("median", 13), ("karcher", 14)):
            _, res = solve_small(kind, 3, 6, seed, max_iters=300)
            assert r.descent_violations(res.trajectory) == 0

    def test_direction_minimality(self):
        # ||eta_{k+1}|| <= min(||gtilde_{k+1}||, ||T eta_k||)
        _, res = solve_small("rayleigh", 4, 8, 15, record=True,
                             max_iters=200)
        rows = res.trajectory
        for prev, row in zip(rows, rows[1:]):
            bound = min(row.gtilde_norm, r.norm(transported(prev, row))) \
                + 1e-12
            assert row.eta_norm <= bound

    def test_transport_isometry_bookkeeping(self):
        _, res = solve_small("rayleigh", 4, 8, 16, record=True,
                             max_iters=200)
        rows = res.trajectory
        for prev, row in zip(rows, rows[1:]):
            assert abs(r.norm(transported(prev, row)) - prev.eta_norm) \
                <= 1e-10 * (1 + prev.eta_norm)

    def test_norm_decay_bound(self):
        # ||eta_k||^2 <= max_j ||gtilde_j||^2 / k
        _, res = solve_small("rayleigh", 4, 10, 17, max_iters=300)
        rows = res.trajectory
        m2 = max(row.gtilde_norm for row in rows)
        for row in rows:
            assert row.eta_norm ** 2 <= m2 ** 2 / row.k + 1e-12

    def test_norm_recursion(self):
        for kind, seed in (("rayleigh", 18), ("median", 19), ("karcher", 20)):
            _, res = solve_small(kind, 3, 6, seed, max_iters=500)
            assert r.norm_recursion_residual(res.trajectory) <= 1e-6

    def test_orthogonality_identity(self):
        _, res = solve_small("rayleigh", 4, 10, 21, max_iters=300)
        bad, total = r.orthogonality_violations(res.trajectory)
        assert total > 0
        assert bad == 0

    def test_cos2_equals_alpha(self):
        _, res = solve_small("rayleigh", 4, 8, 22, max_iters=200)
        for row in res.trajectory[1:]:
            if row.alpha is not None and abs(row.ortho) < 1e-10:
                assert row.cos2_theta == pytest.approx(row.alpha, abs=1e-12)

    def test_stopping_soundness(self):
        # eta-criterion stop: the closed form ties the final direction norm
        # to the last subgradient and previous direction norms.
        P = r.SPD(3)
        a = P.random_point(np.random.default_rng(23)).data
        oracle = r.SpdCenterOfMass(3, 1, a[None])
        x0 = P.random_point(np.random.default_rng(24))
        cfg = r.SolverConfig(epsilon_stop=1e-6)
        res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=24)
        if res.stop_reason == "stationary" and len(res.trajectory) >= 2:
            last, prev = res.trajectory[-1], res.trajectory[-2]
            gk, ek = last.gtilde_norm, prev.eta_norm
            if gk > 0 and ek > 0:
                assert gk * ek / np.sqrt(gk ** 2 + ek ** 2) \
                    <= cfg.epsilon_stop * (1 + 1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spd_steps_past_overflow_shrink_the_bracket(self):
        # A start bracket this wide sends the SPD exponential map past
        # overflow.  The ray reads +inf there, a failed trial that shrinks
        # the bracket, so the solves end normally and warn of nothing.
        cfg = r.SolverConfig(ls=r.LineSearchConfig(tau_init=1e3,
                                                   tau_hi_init=1e5))
        for seed in range(6):
            oracle = r.generate_instance("karcher", 5, 10, seed)
            x0 = r.initial_point("karcher", 5, seed)
            ray = oracle.restrict(x0, oracle.manifold.random_tangent(
                x0, np.random.default_rng(seed)))
            assert ray.value(1e5) == np.inf
            res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=seed)
            assert res.stop_reason == "stationary"
            assert r.descent_violations(res.trajectory) == 0
            assert r.norm_recursion_residual(res.trajectory) <= 1e-13

    def test_f_matches_value_at_final_point(self):
        # f is the line search's closed-form ray value at the accepted step,
        # so it equals the recorded rows exactly and an oracle value at the
        # final point to round-off (not bit for bit).
        for seed in range(60):
            oracle, res = solve_small("rayleigh", 3, 5, seed, record=True,
                                      max_iters=100)
            assert res.f == res.trajectory[-1].f
            for prev, row in zip(res.trajectory, res.trajectory[1:]):
                assert row.f == prev.ls.phi_at_t
            assert abs(res.f - oracle.value(res.x)) <= 1e-13 * abs(res.f)

    def test_nf_at_least_iters(self):
        _, res = solve_small("rayleigh", 3, 5, 26, max_iters=100)
        assert res.nf >= res.iters >= 1

    def test_null_flag_implies_entry_condition(self):
        _, res = solve_small("rayleigh", 4, 10, 27, record=True,
                             max_iters=300)
        assert len(res.line_search_records()) == res.ls_calls >= 1
        for row in res.trajectory:
            if row.ls is not None and row.null:
                assert row.ls.dminus0 <= 0.0 <= row.ls.dplus0

    def test_deterministic_given_seed(self):
        _, res1 = solve_small("rayleigh", 3, 6, 28, max_iters=120)
        _, res2 = solve_small("rayleigh", 3, 6, 28, max_iters=120)
        assert res1.f == res2.f and res1.iters == res2.iters
        assert res1.nf == res2.nf
        assert np.array_equal(res1.x.data, res2.x.data)

    def test_max_iters_cap(self):
        _, res = solve_small("rayleigh", 4, 10, 29, max_iters=7)
        assert res.iters <= 7

    @pytest.mark.parametrize("solve", [r.conjugate_subgradient_solve,
                                       r.subgradient_descent_solve])
    def test_off_manifold_start_rejected(self, solve):
        oracle = r.generate_instance("rayleigh", 3, 5, seed=29)
        x0 = r.initial_point("rayleigh", 3, 29)
        for data in (2.0 * x0.data, np.full(4, np.nan)):
            with pytest.raises(ValueError) as err:
                solve(oracle, r.ManifoldPoint(x0.manifold, data))
            assert not isinstance(err.value, r.BasePointMismatchError)


class TestFrDirectionCheck:
    def test_first_iteration_residual_zero(self):
        _, res = solve_small("rayleigh", 3, 5, 30, record=True, max_iters=1)
        assert r.fr_direction_check(res.trajectory[:1]) == 0.0

    def test_smooth_run_residual(self):
        oracle = r.generate_instance("karcher", 3, 5, seed=31)
        x0 = r.initial_point("karcher", 3, 31)
        cfg = r.SolverConfig(max_iters=50)
        res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=31,
                                            record=True)
        assert r.fr_direction_check(res.trajectory) <= 1e-8

    def test_nonsmooth_run_residual(self):
        _, res = solve_small("rayleigh", 4, 12, 32, record=True, max_iters=50)
        assert r.fr_direction_check(res.trajectory) <= 1e-6

    def test_unrecorded_rows_raise(self):
        # Rows of a default solve hold scalars only; the replay says so
        # instead of failing on a missing vector.
        _, res = solve_small("rayleigh", 3, 5, 32, max_iters=5)
        assert res.trajectory[0].x is None
        with pytest.raises(ValueError, match="record=True"):
            r.fr_direction_check(res.trajectory)


class TestBaselineSolver:
    def test_descent_trend_and_cross_solver_gap(self):
        A = np.diag([2.0, 1.0, 0.5, 1.5])
        oracle = r.RayleighQuotientMax(3, 1, A[None])
        x0 = r.Sphere(4).random_point(np.random.default_rng(33))
        cg = r.conjugate_subgradient_solve(oracle, x0, seed=33)
        sub = r.subgradient_descent_solve(
            oracle, x0, r.SolverConfig(max_iters=5000), seed=33)
        fs = [row.f for row in sub.trajectory]
        assert fs[-1] < fs[0]
        assert sub.f - cg.f <= 1e-3

    def test_zero_subgradient_immediate_stop(self):
        oracle = r.RayleighQuotientMax(2, 1, np.eye(3)[None])
        x0 = r.Sphere(3).random_point(np.random.default_rng(34))
        res = r.subgradient_descent_solve(oracle, x0, seed=34)
        assert res.stop_reason == "stationary"
        assert res.iters == 0

    def test_trajectory_schema_matches(self):
        _, cg = solve_small("rayleigh", 3, 5, 35, max_iters=50)
        oracle = r.generate_instance("rayleigh", 3, 5, seed=35)
        x0 = r.initial_point("rayleigh", 3, 35)
        sub = r.subgradient_descent_solve(
            oracle, x0, r.SolverConfig(max_iters=50), seed=35)
        a = r.trajectory_to_jsonl(cg.trajectory).splitlines()[0]
        b = r.trajectory_to_jsonl(sub.trajectory).splitlines()[0]
        import json
        assert set(json.loads(a)) >= set(json.loads(b))
        required = {"k", "f", "eta_norm", "gtilde_norm", "t", "lambda",
                    "alpha", "null", "nf_cum", "time_cum_s"}
        assert required <= set(json.loads(b))


def _scalar_checks(rows):
    return (r.descent_violations(rows), r.norm_recursion_residual(rows),
            r.orthogonality_violations(rows),
            r.orthogonality_violations(rows, scale_tol=0.0))


class TestTrajectorySerialization:
    def test_scalar_round_trip(self):
        _, res = solve_small("rayleigh", 3, 5, 36, record=True, max_iters=60)
        text = r.trajectory_to_jsonl(res.trajectory)
        rows = r.trajectory_from_jsonl(text)
        assert len(rows) == len(res.trajectory)
        assert all(isinstance(row, r.IterationRecord) for row in rows)
        assert all(row.x is None and row.eta is None and row.gtilde is None
                   for row in rows)
        assert rows[0].f == res.trajectory[0].f
        assert r.norm_recursion_residual(rows) <= 1e-6
        # The checks read the same numbers from either row origin.
        tangent_rows = r.trajectory_from_jsonl(
            r.trajectory_to_jsonl(res.trajectory, include_tangents=True))
        expected = _scalar_checks(res.trajectory)
        assert expected[3][0] > 0  # scale_tol = 0 counts every nonzero ortho
        assert _scalar_checks(rows) == expected
        assert _scalar_checks(tangent_rows) == expected

    def test_tangent_round_trip_replayable(self):
        _, res = solve_small("rayleigh", 3, 5, 37, record=True, max_iters=50)
        text = r.trajectory_to_jsonl(res.trajectory, include_tangents=True)
        rows = r.trajectory_from_jsonl(text)
        assert all(isinstance(row, r.IterationRecord) for row in rows)
        assert all(np.array_equal(row.x.data, mem.x.data)
                   for row, mem in zip(rows, res.trajectory))
        assert r.fr_direction_check(rows) <= 1e-6
        assert r.descent_violations(rows) == 0

    def test_spd_tangent_round_trip_and_unknown_tag(self):
        _, res = solve_small("karcher", 3, 4, 38, record=True, max_iters=10)
        text = r.trajectory_to_jsonl(res.trajectory, include_tangents=True)
        rows = r.trajectory_from_jsonl(text)
        assert rows[0].x.manifold == r.SPD(3)
        assert np.array_equal(rows[-1].x.data, res.x.data)
        bad = text.replace('"kind": "spd"', '"kind": "torus"')
        with pytest.raises(ValueError, match="unknown manifold tag"):
            r.trajectory_from_jsonl(bad)

    def test_tangent_lines_of_unrecorded_rows_raise(self):
        # Raised when the lines are asked for, before any line is made, so a
        # streaming writer leaves no partial file.
        _, res = solve_small("rayleigh", 3, 5, 37, max_iters=5)
        with pytest.raises(ValueError, match="record=True"):
            r.solver.trajectory_lines(res.trajectory, include_tangents=True)
        assert r.trajectory_to_jsonl(res.trajectory).count("\n") \
            == len(res.trajectory)


def _median_at_data_point():
    """Median whose heaviest point is the minimizer, started there."""
    base = r.generate_instance("median", 3, 5, seed=40)
    weights = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
    oracle = r.GeometricMedian(3, 5, base.points, weights)
    return oracle, oracle.manifold.point(base.points[0])


class TestRawLoopReplay:
    """The solve loops run on raw arrays; replay every row with the exported
    TangentVector functions (and ``direction_update`` on their data) and
    compare bit for bit."""

    def _cs_solves(self):
        cases = [solve_small("rayleigh", 4, 10, 41, record=True,
                             max_iters=60),
                 solve_small("median", 4, 10, 42, record=True, max_iters=60),
                 solve_small("karcher", 3, 6, 43, record=True, max_iters=30)]
        oracle, x0 = _median_at_data_point()
        cases.append((oracle, r.conjugate_subgradient_solve(
            oracle, x0, r.SolverConfig(max_iters=5), seed=44, record=True)))
        return [res for _, res in cases]

    def test_conjugate_rows_match_public_algebra(self):
        seen = {"null": 0, "zero": 0, "move": 0}
        for res in self._cs_solves():
            rows = res.trajectory
            for prev, row in zip(rows, rows[1:]):
                ls = prev.ls
                seen["null" if ls.null else "zero" if ls.t == 0.0
                     else "move"] += 1
                d = r.transport_between(prev.x, row.x, prev.eta)
                lam = r.select_lambda(r.inner(ls.g_plus, d),
                                      r.inner(ls.g_minus, d))
                g = r.combine_subgradient(ls.g_plus, ls.g_minus, lam)
                ortho = r.inner(g, d)
                nd2 = r.inner(d, d)
                if nd2 > 0.0:
                    g = g - (ortho / nd2) * d
                eta, alpha = update(g, d)
                assert row.x is ls.x_new
                for got, ref in ((row.gtilde, g), (row.eta, eta)):
                    assert np.array_equal(got.data, ref.data)
                assert (row.lam, row.ortho, row.alpha) == (lam, ortho, alpha)
                assert row.cos2_theta == cos2_theta(g, d)
                assert row.eta_norm == r.norm(eta)
                assert row.gtilde_norm == r.norm(g)
        assert min(seen.values()) >= 1, seen

    def test_subgradient_rows_match_public_algebra(self):
        for kind, n, m in (("rayleigh", 4, 10), ("median", 4, 10),
                           ("karcher", 3, 6)):
            oracle = r.generate_instance(kind, n, m, seed=45)
            x0 = r.initial_point(kind, n, 45)
            res = r.subgradient_descent_solve(
                oracle, x0, r.SolverConfig(max_iters=30), seed=45,
                record=True)
            rows = res.trajectory
            assert len(rows) > 1
            for prev, row in zip(rows, rows[1:]):
                step = r.retract(prev.x, prev.t * prev.eta)
                assert np.array_equal(row.x.data, step.data)
            # One value_and_subgrad pass per row: value and active_subgrad
            # at the row's point, for the solver's random direction draws.
            rng = np.random.default_rng(45)
            for row in rows:
                xi = oracle.manifold.random_tangent(row.x, rng)
                assert row.f == oracle.value(row.x)
                assert np.array_equal(row.gtilde.data,
                                      oracle.active_subgrad(row.x, xi).data)
                assert row.eta_norm == row.gtilde_norm == r.norm(row.gtilde)
                assert np.array_equal(row.eta.data, -row.gtilde.data)
            assert res.nf == len(rows)


class TestPerIterationWork:
    """Fixed work per conjugate-subgradient iteration."""

    # One random unit draw and the two norms of row 1, then per iteration:
    # <g+, d>, <g-, d>, <gtilde, d>, <d, d>, <gtilde, gtilde>, ||eta||^2 and
    # the two of cos^2 (<s, s>, <d, s>).  The ray objective takes ||eta|| from
    # the row.
    SETUP, PER_ITER = 3, 8

    @pytest.mark.parametrize("kind, n, m", [("rayleigh", 5, 200),
                                            ("karcher", 5, 50)])
    def test_inner_products_per_iteration(self, kind, n, m, monkeypatch):
        oracle = r.generate_instance(kind, n, m, seed=47)
        x0 = r.initial_point(kind, n, 47)
        cls = type(x0.manifold)
        calls = []
        inner = cls._inner

        def counted(self, x, u, v):
            calls.append(1)
            return inner(self, x, u, v)

        monkeypatch.setattr(cls, "_inner", counted)
        res = r.conjugate_subgradient_solve(
            oracle, x0, r.SolverConfig(max_iters=25), seed=47)
        assert res.stop_reason == "max_iters" and res.iters == 25
        assert len(calls) == self.SETUP + self.PER_ITER * res.iters

    def test_rows_hold_the_loop_arrays_read_only(self):
        zero_steps = 0
        for res in TestRawLoopReplay()._cs_solves():
            rows = res.trajectory
            for prev, row in zip(rows, rows[1:]):
                for vec in (row.eta, row.gtilde, prev.ls.g_plus,
                            prev.ls.g_minus):
                    assert not vec.data.flags.writeable
                    assert vec.base is row.x
                zero_steps += row.x is prev.x
        assert zero_steps >= 1


class CallLog:
    """Oracle proxy that forwards every attribute through ``__getattr__``, as
    the benchmark's timing proxy does, and counts the method calls.  It
    lacks the methods named in ``hide``.  The rays that ``restrict`` hands
    out count their calls into ``ray_calls`` and lack the ray methods named
    in ``hide_ray``."""

    def __init__(self, oracle, hide=(), hide_ray=()):
        self._oracle, self._hide, self._hide_ray = oracle, set(hide), hide_ray
        self.calls, self.ray_calls = Counter(), Counter()

    def __getattr__(self, name):
        if name in self._hide:
            raise AttributeError(name)
        attr = getattr(self._oracle, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            out = attr(*args)
            if name == "restrict":
                return SpyRay(out, self._hide_ray, self.ray_calls)
            return out
        return counted


class TestEntryChecks:
    """Inputs are validated where they enter, before any evaluation."""

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("method", ["restrict", "value_and_subgrad"])
    def test_missing_required_method(self, solve, method):
        oracle = r.generate_instance("rayleigh", 3, 5, seed=50)
        log = CallLog(oracle, hide={method})
        assert not hasattr(log, method)
        with pytest.raises(TypeError, match=method):
            solve(log, r.initial_point("rayleigh", 3, 50))
        assert log.calls == {} and log.ray_calls == {}

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_forwarding_proxy_is_accepted(self, solve):
        cfg = r.SolverConfig(max_iters=40)
        for kind, n, m in (("rayleigh", 5, 20), ("karcher", 3, 6)):
            oracle = r.generate_instance(kind, n, m, seed=51)
            x0 = r.initial_point(kind, n, 51)
            ref = solve(oracle, x0, cfg, seed=51)
            log = CallLog(oracle)
            res = solve(log, x0, cfg, seed=51)
            assert (res.iters, res.nf, res.f) == (ref.iters, ref.nf, ref.f)
            assert log.calls["value_and_subgrad"] >= 1

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("kind,n,x0", [
        ("rayleigh", 5, r.Sphere(8).point(np.eye(8)[0])),
        ("karcher", 3, r.Sphere(3).point(np.eye(3)[0])),
        ("karcher", 3, r.SPD(4).point(np.eye(4))),
    ], ids=["rayleigh-n7-start", "karcher-sphere-start",
            "karcher-spd4-start"])
    def test_start_on_another_manifold(self, solve, kind, n, x0):
        log = CallLog(r.generate_instance(kind, n, 6, seed=52))
        with pytest.raises(ValueError) as err:
            solve(log, x0)
        msg = str(err.value)
        assert str(x0.manifold.tag()) in msg
        assert str(log.manifold.tag()) in msg
        assert log.calls == {} and log.ray_calls == {}


class TestEvaluationCount:
    """nf is the sum of the evaluations where they are made."""

    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 40),
                                          ("median", 4, 10),
                                          ("karcher", 3, 6)])
    def test_conjugate_nf_is_one_plus_the_line_search_evals(self, kind, n, m):
        oracle = r.generate_instance(kind, n, m, seed=53)
        x0 = r.initial_point(kind, n, 53)
        cfg = r.SolverConfig(max_iters=40)
        res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=53,
                                            record=True)
        searches = res.line_search_records()
        assert len(searches) == res.ls_calls >= 1
        assert res.nf == 1 + sum(ls.evals for ls in searches)
        rows = res.trajectory
        assert rows[0].nf_cum == 1 and rows[-1].nf_cum == res.nf
        for prev, row in zip(rows, rows[1:]):
            assert row.nf_cum == prev.nf_cum + prev.ls.evals
        # Counted independently: one value_and_subgrad pass plus one ray
        # value call per evaluation, with the batched values hidden.
        log = CallLog(oracle, hide_ray={"values"})
        ref = r.conjugate_subgradient_solve(log, x0, cfg, seed=53)
        assert (ref.iters, ref.nf, ref.f) == (res.iters, res.nf, res.f)
        assert log.calls["value_and_subgrad"] == 1
        assert res.nf == 1 + log.ray_calls["value"]
        assert log.calls["restrict"] == res.ls_calls
        assert log.calls["value"] == log.calls["active_subgrad"] == 0

    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 40),
                                          ("karcher", 3, 6)])
    def test_subgradient_nf_is_one_per_iterate(self, kind, n, m):
        oracle = r.generate_instance(kind, n, m, seed=54)
        log = CallLog(oracle)
        res = r.subgradient_descent_solve(log, r.initial_point(kind, n, 54),
                                          r.SolverConfig(max_iters=30),
                                          seed=54)
        assert res.iters == 30
        assert res.nf == res.iters + 1 == log.calls["value_and_subgrad"]
        assert [row.nf_cum for row in res.trajectory] \
            == list(range(1, res.nf + 1))
        assert sum(log.calls.values()) == res.nf and log.ray_calls == {}


_SCALAR_FIELDS = ("k", "f", "eta_norm", "gtilde_norm", "nf_cum", "t", "null",
                  "lam", "alpha", "cos2_theta", "ortho")


class TestRecord:
    """``record`` decides what the rows keep, never what the solve does."""

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 40),
                                          ("median", 4, 10),
                                          ("karcher", 3, 6)])
    def test_recording_changes_no_result(self, solve, kind, n, m):
        oracle = r.generate_instance(kind, n, m, seed=55)
        x0 = r.initial_point(kind, n, 55)
        cfg = r.SolverConfig(max_iters=60)
        plain = solve(oracle, x0, cfg, seed=55)
        rec = solve(oracle, x0, cfg, seed=55, record=True)
        assert (plain.iters, plain.nf, plain.stop_reason, plain.f.hex()) \
            == (rec.iters, rec.nf, rec.stop_reason, rec.f.hex())
        assert plain.iters >= 1
        assert np.array_equal(plain.x.data, rec.x.data)
        for a, b in zip(plain.trajectory, rec.trajectory, strict=True):
            assert [getattr(a, k) for k in _SCALAR_FIELDS] \
                == [getattr(b, k) for k in _SCALAR_FIELDS]
            assert (a.x, a.eta, a.gtilde, a.ls) == (None,) * 4
            assert None not in (b.x, b.eta, b.gtilde)
        assert plain.irp_trace is None and plain.line_search_records() == []
        if solve is r.conjugate_subgradient_solve:
            assert len(rec.line_search_records()) == rec.ls_calls >= 1
            assert rec.irp_trace
        else:
            assert rec.irp_trace is None and rec.line_search_records() == []

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_unrecorded_solve_holds_scalars_only(self, solve):
        # Rows without tangent vectors or line-search results: what the
        # result keeps per iteration is a few hundred bytes of scalars,
        # where the 21-entry vectors of a recorded row alone take ~800.
        oracle = r.generate_instance("rayleigh", 20, 50, seed=3)
        x0 = r.initial_point("rayleigh", 20, 3)
        cfg = r.SolverConfig(max_iters=1000)
        solve(oracle, x0, r.SolverConfig(max_iters=5), seed=3)  # warm up
        held = {}
        for record in (False, True):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                res = solve(oracle, x0, cfg, seed=3, record=record)
                held[record] = \
                    (tracemalloc.get_traced_memory()[0] - base) / res.iters
            finally:
                tracemalloc.stop()
            assert res.iters == 1000
            del res
        assert held[False] < 700, held
        assert held[True] > 2 * held[False], held
