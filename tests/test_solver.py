import numpy as np
import pytest

import rcsopt as r
from rcsopt.solver import _cos2_theta

from oracles import geodesic_grid_min, grid_min_norm_alpha


def solve_small(kind, n, m, seed, **cfg_kw):
    oracle = r.generate_instance(kind, n, m, seed=seed)
    x0 = r.initial_point(kind, n, seed)
    cfg = r.SolverConfig(**cfg_kw) if cfg_kw else None
    return oracle, r.conjugate_subgradient_solve(oracle, x0, cfg, seed=seed)


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
        eta, alpha = r.direction_update(g, d)
        assert alpha == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(eta.data, 0.5 * (d.data - g.data), atol=1e-14)

    def test_zero_gtilde_stops(self):
        S = r.Sphere(4)
        rng = np.random.default_rng(3)
        x = S.random_point(rng)
        d = S.random_tangent(x, rng)
        eta, alpha = r.direction_update(S.zero_tangent(x), d)
        assert alpha == 1.0
        assert r.norm(eta) == 0.0

    def test_zero_d(self):
        # alpha = 0 and eta_new = (1 - alpha) d = 0: degenerate stop signal
        S = r.Sphere(4)
        rng = np.random.default_rng(4)
        x = S.random_point(rng)
        g = S.random_tangent(x, rng)
        eta, alpha = r.direction_update(g, S.zero_tangent(x))
        assert alpha == 0.0
        assert r.norm(eta) == 0.0

    def test_both_zero(self):
        S = r.Sphere(4)
        x = S.random_point(np.random.default_rng(5))
        z = S.zero_tangent(x)
        eta, alpha = r.direction_update(z, z)
        assert r.norm(eta) == 0.0

    def test_minimum_norm_vs_grid_oracle(self):
        S = r.Sphere(5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = S.random_point(rng)
            d = rng.uniform(0.2, 3.0) * S.random_tangent(x, rng)
            g = rng.uniform(0.2, 3.0) * S.random_tangent(x, rng)
            g = g - (r.inner(g, d) / r.inner(d, d)) * d  # enforce g _|_ d
            eta, alpha = r.direction_update(g, d)
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
        eta, _ = r.direction_update(g, d)
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
        _, res = solve_small("rayleigh", 4, 8, 15, max_iters=200)
        rows = res.trajectory
        for prev, row in zip(rows, rows[1:]):
            bound = min(row.gtilde_norm, r.norm(row.d)) + 1e-12
            assert row.eta_norm <= bound

    def test_transport_isometry_bookkeeping(self):
        _, res = solve_small("rayleigh", 4, 8, 16, max_iters=200)
        rows = res.trajectory
        for prev, row in zip(rows, rows[1:]):
            assert abs(r.norm(row.d) - prev.eta_norm) \
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

    def test_f_matches_value_at_final_point(self):
        # f is the line search's closed-form ray value at the accepted step,
        # so it equals the recorded rows exactly and an oracle value at the
        # final point to round-off (not bit for bit).
        for seed in range(60):
            oracle, res = solve_small("rayleigh", 3, 5, seed, max_iters=100)
            assert res.f == res.trajectory[-1].f
            for prev, row in zip(res.trajectory, res.trajectory[1:]):
                assert row.f == prev.ls.phi_at_t
            assert abs(res.f - oracle.value(res.x)) <= 1e-13 * abs(res.f)

    def test_nf_at_least_iters(self):
        _, res = solve_small("rayleigh", 3, 5, 26, max_iters=100)
        assert res.nf >= res.iters >= 1

    def test_null_flag_implies_entry_condition(self):
        _, res = solve_small("rayleigh", 4, 10, 27, max_iters=300)
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
        _, res = solve_small("rayleigh", 3, 5, 30, max_iters=1)
        assert r.fr_direction_check(res.trajectory[:1]) == 0.0

    def test_smooth_run_residual(self):
        oracle = r.generate_instance("karcher", 3, 5, seed=31)
        x0 = r.initial_point("karcher", 3, 31)
        cfg = r.SolverConfig(max_iters=50)
        res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=31)
        assert r.fr_direction_check(res.trajectory) <= 1e-8

    def test_nonsmooth_run_residual(self):
        _, res = solve_small("rayleigh", 4, 12, 32, max_iters=50)
        assert r.fr_direction_check(res.trajectory) <= 1e-6


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
        _, res = solve_small("rayleigh", 3, 5, 36, max_iters=60)
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
        _, res = solve_small("rayleigh", 3, 5, 37, max_iters=50)
        text = r.trajectory_to_jsonl(res.trajectory, include_tangents=True)
        rows = r.trajectory_from_jsonl(text)
        assert all(isinstance(row, r.IterationRecord) for row in rows)
        assert all(np.array_equal(row.x.data, mem.x.data)
                   for row, mem in zip(rows, res.trajectory))
        assert r.fr_direction_check(rows) <= 1e-6
        assert r.descent_violations(rows) == 0

    def test_spd_tangent_round_trip_and_unknown_tag(self):
        _, res = solve_small("karcher", 3, 4, 38, max_iters=10)
        text = r.trajectory_to_jsonl(res.trajectory, include_tangents=True)
        rows = r.trajectory_from_jsonl(text)
        assert rows[0].x.manifold == r.SPD(3)
        assert np.array_equal(rows[-1].x.data, res.x.data)
        bad = text.replace('"kind": "spd"', '"kind": "torus"')
        with pytest.raises(ValueError, match="unknown manifold tag"):
            r.trajectory_from_jsonl(bad)
