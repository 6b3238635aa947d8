import dataclasses
import gc
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import rcsopt as r
from rcsopt.linesearch import IRP_FIELDS

from oracles import (SpyRay, geodesic_grid_min, grid_min_norm_alpha,
                     line_searches, stall_search)

SOLVERS = [r.conjugate_subgradient_solve, r.subgradient_descent_solve]


def update(g, d):
    """``direction_update`` on tangent vectors at one point, wrapped back."""
    eta, alpha = r.direction_update(g.data, d.data, r.inner(g, g),
                                    r.inner(d, d))
    return r.TangentVector(g.base, eta), alpha


def transported(prev, row):
    """The direction d that produced ``row``: prev.eta carried to row.x."""
    return r.transport_between(prev.x, row.x, prev.eta)


def solve_small(kind, n, m, seed, record=False, **cfg_kw):
    oracle = r.generate_instance(kind, n, m, seed=seed)
    x0 = r.initial_point(kind, n, seed)
    cfg = r.SolverConfig(**cfg_kw) if cfg_kw else None
    return oracle, r.conjugate_subgradient_solve(oracle, x0, cfg, seed=seed,
                                                 record=record)


def solve_with_searches(*args, **kw):
    """``solve_small`` plus the line-search results the solve produced."""
    with line_searches() as searches:
        oracle, res = solve_small(*args, **kw)
    assert len(searches) == res.iters
    return oracle, res, searches


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
        self.gp = S.tangent(self.x, rng.standard_normal(self.x.data.shape))
        self.gm = S.tangent(self.x, rng.standard_normal(self.x.data.shape))

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
            assert r.check_trajectory(res.trajectory).descent_violations == 0

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
            assert r.check_trajectory(res.trajectory).norm_residual <= 1e-6

    def test_orthogonality_identity(self):
        _, res = solve_small("rayleigh", 4, 10, 21, max_iters=300)
        bad, total = r.check_trajectory(res.trajectory).orthogonality
        assert total > 0
        assert bad == 0

    def test_cos2_equals_alpha(self):
        # The update's weight is cos^2 of the angle between the transported
        # direction d and gtilde + d, because gtilde _|_ d.
        _, res = solve_small("rayleigh", 4, 8, 22, record=True, max_iters=200)
        checked = 0
        for prev, row in zip(res.trajectory, res.trajectory[1:]):
            if abs(row.ortho) < 1e-10:
                d = transported(prev, row)
                s = row.gtilde + d
                nd2, ns2 = r.inner(d, d), r.inner(s, s)
                if nd2 > 0.0 and ns2 > 0.0:
                    cos2 = r.inner(d, s) ** 2 / (nd2 * ns2)
                    assert cos2 == pytest.approx(row.alpha, abs=1e-12)
                    checked += 1
        assert checked >= 1

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

    def test_stationary_after_an_edge_stop_is_its_own_stop(self):
        # One median point, a start 80 degrees away: the first search ends
        # at the injectivity clamp, unbracketed, with gtilde antiparallel to
        # d, so removing gtilde's component along d zeroes eta where the
        # gradient has norm 1.  The stop says so, and records.csv keeps it.
        oracle = r.GeometricMedian(2, 1, np.array([[1.0, 0.0, 0.0]]),
                                   np.array([1.0]))
        a = math.radians(80.0)
        x0 = oracle.manifold.point([math.cos(a), math.sin(a), 0.0])
        with line_searches() as searches:
            res = r.conjugate_subgradient_solve(oracle, x0, seed=0)
        assert (res.stop_reason, res.iters) == ("edge_stop", 1)
        ls, last = searches[-1], res.trajectory[-1]
        assert ls.sign != 0 and ls.tau_hi_final >= ls.tau_hi_start
        assert last.ortho == pytest.approx(-1.0) and last.eta_norm <= 1e-8
        assert res.f > 0.13
        row = r.BenchmarkRecord(problem="p", solver="s", seed=0, iters=1,
                                nf=res.nf, wall_time_s=0.0, final_f=res.f,
                                stop_reason=res.stop_reason)
        assert r.records_from_csv(r.records_to_csv([row])) == [row]

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
            check = r.check_trajectory(res.trajectory)
            assert check.descent_violations == 0
            assert check.norm_residual <= 1e-13

    def test_f_matches_value_at_final_point(self):
        # f is the line search's closed-form ray value at the accepted step,
        # so it equals the recorded rows exactly and an oracle value at the
        # final point to round-off (not bit for bit).
        for seed in range(60):
            oracle, res, searches = solve_with_searches(
                "rayleigh", 3, 5, seed, max_iters=100)
            assert res.f == res.trajectory[-1].f
            for ls, row in zip(searches, res.trajectory[1:]):
                assert row.f == ls.phi_at_t
            assert abs(res.f - oracle.value(res.x)) <= 1e-13 * abs(res.f)

    def test_nf_at_least_iters(self):
        _, res = solve_small("rayleigh", 3, 5, 26, max_iters=100)
        assert res.nf >= res.iters >= 1

    def test_null_flag_implies_entry_condition(self):
        _, res, searches = solve_with_searches("rayleigh", 4, 10, 27,
                                               max_iters=300)
        assert res.iters >= 1
        for ls, row in zip(searches, res.trajectory):
            assert row.null == (ls.sign == 0)
            if row.null:
                assert ls.dminus0 <= 0.0 <= ls.dplus0

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
        assert r.check_trajectory(res.trajectory[:1]).fr_residual == 0.0

    def test_smooth_run_residual(self):
        oracle = r.generate_instance("karcher", 3, 5, seed=31)
        x0 = r.initial_point("karcher", 3, 31)
        cfg = r.SolverConfig(max_iters=50)
        res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=31,
                                            record=True)
        assert r.check_trajectory(res.trajectory).fr_residual <= 1e-8

    def test_nonsmooth_run_residual(self):
        _, res = solve_small("rayleigh", 4, 12, 32, record=True, max_iters=50)
        assert r.check_trajectory(res.trajectory).fr_residual <= 1e-6

    def test_unrecorded_rows_have_no_fr_residual(self):
        # Rows of a default solve hold scalars only: the replay is skipped
        # and the scalar checks still run.
        _, res = solve_small("rayleigh", 3, 5, 32, max_iters=5)
        assert res.trajectory[0].x is None
        check = r.check_trajectory(res.trajectory)
        assert check.fr_residual is None
        assert check.descent_violations == 0


class TestCheckTrajectory:
    @pytest.mark.parametrize("field", ["f", "eta_norm", "gtilde_norm"])
    def test_nan_fails_and_stays(self, field):
        # One bad row in the middle of a recorded run: its check fails, and
        # the finite rows after it do not overwrite a non-finite residual.
        _, res = solve_small("rayleigh", 3, 5, 2, record=True, max_iters=30)
        rows = list(res.trajectory)
        rows[2] = dataclasses.replace(rows[2], **{field: np.nan})
        check = r.check_trajectory(rows)
        if field == "f":
            assert check.descent_violations == 1
        else:
            assert not math.isfinite(check.norm_residual)
            assert not math.isfinite(check.fr_residual)
        assert any(failed for _, failed in check.verdicts())

    def test_mixed_tangent_rows_raise(self):
        _, res = solve_small("rayleigh", 3, 5, 2, record=True, max_iters=5)
        rows = list(res.trajectory)
        rows[3] = dataclasses.replace(rows[3], x=None)
        with pytest.raises(ValueError, match="tangent data"):
            r.check_trajectory(rows)

    def test_no_rows_raise(self):
        with pytest.raises(ValueError, match="no rows"):
            r.check_trajectory(iter([]))


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
        a = next(r.trajectory_lines(cg.trajectory))
        b = next(r.trajectory_lines(sub.trajectory))
        import json
        assert set(json.loads(a)) >= set(json.loads(b))
        required = {"k", "f", "eta_norm", "gtilde_norm", "t", "lambda",
                    "alpha", "null", "nf_cum", "time_cum_s"}
        assert required <= set(json.loads(b))


def _jsonl(rows, include_tangents=False):
    """The rows written as JSON lines and parsed back."""
    return list(r.trajectory_from_jsonl(
        r.trajectory_lines(rows, include_tangents)))


def _scalars(check):
    return check.descent_violations, check.norm_residual, check.orthogonality


class TestTrajectorySerialization:
    def test_scalar_round_trip(self):
        _, res = solve_small("rayleigh", 3, 5, 36, record=True, max_iters=60)
        rows = _jsonl(res.trajectory)
        assert len(rows) == len(res.trajectory)
        assert all(isinstance(row, r.IterationRecord) for row in rows)
        assert all(row.x is None and row.eta is None and row.gtilde is None
                   for row in rows)
        assert [row.f for row in rows] == [row.f for row in res.trajectory]
        assert [row.ortho for row in rows] \
            == [row.ortho for row in res.trajectory]
        assert r.check_trajectory(rows).norm_residual <= 1e-6
        # The checks read the same numbers from either row origin.
        expected = r.check_trajectory(res.trajectory)
        assert _scalars(r.check_trajectory(rows)) == _scalars(expected)
        tangent_check = r.check_trajectory(_jsonl(res.trajectory, True))
        assert tangent_check == expected

    def test_tangent_round_trip_replayable(self):
        # A recorded row holds exactly what its written line carries: every
        # field comes back, the tangent vectors by their data.
        _, res = solve_small("rayleigh", 3, 5, 37, record=True, max_iters=50)
        rows = _jsonl(res.trajectory, include_tangents=True)
        assert all(isinstance(row, r.IterationRecord) for row in rows)
        # The last row made no search; every other stopped at the width.
        assert {row.width_stop for row in res.trajectory} == {False, True}
        for row, mem in zip(rows, res.trajectory, strict=True):
            for fld in dataclasses.fields(r.IterationRecord):
                got, want = getattr(row, fld.name), getattr(mem, fld.name)
                if fld.name in ("x", "eta", "gtilde"):
                    assert np.array_equal(got.data, want.data), fld.name
                else:
                    assert got == want, fld.name
        check = r.check_trajectory(rows)
        assert check.fr_residual <= 1e-6
        assert check.descent_violations == 0

    def test_spd_tangent_round_trip_and_unknown_tag(self):
        _, res = solve_small("karcher", 3, 4, 38, record=True, max_iters=10)
        lines = list(r.trajectory_lines(res.trajectory, include_tangents=True))
        rows = list(r.trajectory_from_jsonl(lines))
        assert rows[0].x.manifold == r.SPD(3)
        assert np.array_equal(rows[-1].x.data, res.x.data)
        bad = [line.replace('"kind": "spd"', '"kind": "torus"')
               for line in lines]
        with pytest.raises(ValueError, match="unknown manifold tag"):
            list(r.trajectory_from_jsonl(bad))

    def test_tangent_lines_of_unrecorded_rows_raise(self):
        # Raised when the lines are asked for, before any line is made, so a
        # streaming writer leaves no partial file.
        _, res = solve_small("rayleigh", 3, 5, 37, max_iters=5)
        with pytest.raises(ValueError, match="record=True"):
            r.trajectory_lines(res.trajectory, include_tangents=True)
        assert len(list(r.trajectory_lines(res.trajectory))) \
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
        """(result, line-search results) of recorded solves."""
        cases = [solve_with_searches("rayleigh", 4, 10, 41, record=True,
                                     max_iters=60),
                 solve_with_searches("median", 4, 10, 42, record=True,
                                     max_iters=60),
                 solve_with_searches("karcher", 3, 6, 43, record=True,
                                     max_iters=30)]
        oracle, x0 = _median_at_data_point()
        with line_searches() as searches:
            res = r.conjugate_subgradient_solve(
                oracle, x0, r.SolverConfig(max_iters=5), seed=44, record=True)
        cases.append((oracle, res, searches))
        return [(res, searches) for _, res, searches in cases]

    def test_conjugate_rows_match_public_algebra(self):
        seen = {"null": 0, "zero": 0, "move": 0}
        for res, searches in self._cs_solves():
            rows = res.trajectory
            for ls, prev, row in zip(searches, rows, rows[1:]):
                seen["null" if ls.sign == 0 else "zero" if ls.t == 0.0
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
    # <g+, d>, <g-, d>, <gtilde, d>, <d, d>, <gtilde, gtilde> and ||eta||^2.
    # The line search takes ||eta|| from the row.
    SETUP, PER_ITER = 3, 6

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
        for res, searches in TestRawLoopReplay()._cs_solves():
            rows = res.trajectory
            for ls, prev, row in zip(searches, rows, rows[1:]):
                for vec in (row.eta, row.gtilde, ls.g_plus, ls.g_minus):
                    assert not vec.data.flags.writeable
                    assert vec.base is row.x
                zero_steps += row.x is prev.x
        assert zero_steps >= 1


class TestWorkingSet:
    """An unrecorded solve holds one ray at a time, and a ray holds at most
    two per-step states: t = 0 and the step being computed."""

    # (kind, n, m, bytes of the ray's stack, bound in stacks).  The Karcher
    # stack is an (m, n, n) array (the whitened data, each eigenvector
    # stack of the memo); the Rayleigh one is the fused (m, n+1, 2)
    # product.  Measured over 20 iterations: 4.7 Karcher stacks and 1.7
    # Rayleigh stacks.  When the last search's ray lives on through the
    # next ``restrict`` they are 6.5 and 2.2; when a ray computes a step
    # before it drops the previous one, Karcher holds 5.5.
    @pytest.mark.parametrize("kind,n,m,stack,bound", [
        ("karcher", 20, 50, 50 * 20 ** 2 * 8, 5.1),
        ("rayleigh", 50, 200, 200 * 51 * 2 * 8, 2.0)],
        ids=["karcher-20x50", "rayleigh-50x200"])
    def test_heap_peak_in_ray_stacks(self, kind, n, m, stack, bound):
        oracle = r.generate_instance(kind, n, m, seed=3)
        x0 = r.initial_point(kind, n, 3)
        r.conjugate_subgradient_solve(oracle, x0, r.SolverConfig(max_iters=5),
                                      seed=3)  # warm up
        tracemalloc.start()
        try:
            res = r.conjugate_subgradient_solve(
                oracle, x0, r.SolverConfig(max_iters=20), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iters == 20
        assert peak < bound * stack, peak / stack


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
        with line_searches() as searches:
            res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=53)
        assert len(searches) == res.iters >= 1
        assert res.nf == 1 + sum(ls.evals for ls in searches)
        rows = res.trajectory
        assert rows[0].nf_cum == 1 and rows[-1].nf_cum == res.nf
        for ls, prev, row in zip(searches, rows, rows[1:]):
            assert row.nf_cum == prev.nf_cum + ls.evals
        # Counted independently: one value_and_subgrad pass plus one ray
        # value call per evaluation, with the batched values hidden.
        log = CallLog(oracle, hide_ray={"values"})
        ref = r.conjugate_subgradient_solve(log, x0, cfg, seed=53)
        assert (ref.iters, ref.nf, ref.f) == (res.iters, res.nf, res.f)
        assert log.calls["value_and_subgrad"] == 1
        assert res.nf == 1 + log.ray_calls["value"]
        assert log.calls["restrict"] == res.iters
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
                  "width_stop", "lam", "alpha", "ortho")


def _same_row(a, b) -> bool:
    """Every field equal but the clock, the tangent vectors by their data."""
    return [getattr(a, k) for k in _SCALAR_FIELDS] \
        == [getattr(b, k) for k in _SCALAR_FIELDS] \
        and all(np.array_equal(getattr(a, k).data, getattr(b, k).data)
                for k in ("x", "eta", "gtilde"))


def _sunk(solve, *args, **kw):
    """The result of a solve whose record is a list-appending sink, and the
    (row, entries, row.t at hand-off) it was handed."""
    got = []

    def sink(row, entries):
        got.append((row, entries, row.t))
    return solve(*args, **kw, record=sink), got


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
            assert (a.x, a.eta, a.gtilde) == (None,) * 3
            assert None not in (b.x, b.eta, b.gtilde)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_unrecorded_solve_holds_scalars_only(self, solve):
        # Rows without tangent vectors: what the result keeps per iteration
        # is a slotted row of scalars, about 390 B (450 B with a per-row
        # __dict__), where the 21-entry vectors of a recorded row alone
        # take ~800.
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
        assert held[False] < 440, held
        assert held[True] > 2 * held[False], held

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("record", [False, True])
    def test_dropped_result_is_freed_without_the_cycle_collector(
            self, solve, record):
        # Nothing of a solve sits in a reference cycle: its rows go when
        # its result does.  A recorder that refers to itself (its own bound
        # method as the sink, say) keeps them until the cycle collector
        # runs, which raises the benchmark's peak RSS (sphere-cs: 2.5 MB).
        oracle = r.generate_instance("rayleigh", 5, 20, seed=61)
        x0 = r.initial_point("rayleigh", 5, 61)
        cfg = r.SolverConfig(max_iters=1000)
        solve(oracle, x0, r.SolverConfig(max_iters=5), seed=61)  # warm up
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = solve(oracle, x0, cfg, seed=61, record=record)
            held = tracemalloc.get_traced_memory()[0] - base
            del res
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        # What is left is a few caches of constant size (about 20 KB).
        assert held > 100_000 and left < 0.25 * held, (held, left)

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 40),
                                          ("karcher", 3, 6)])
    def test_sink_is_handed_the_recorded_rows(self, solve, kind, n, m):
        # A callable record gets each row once its search has run, in order,
        # with that search's IRP entries; the solve keeps neither.
        oracle = r.generate_instance(kind, n, m, seed=56)
        x0 = r.initial_point(kind, n, 56)
        cfg = r.SolverConfig(max_iters=60)
        rec = solve(oracle, x0, cfg, seed=56, record=True)
        res, got = _sunk(solve, oracle, x0, cfg, seed=56)
        assert (res.iters, res.nf, res.stop_reason, res.f.hex()) \
            == (rec.iters, rec.nf, rec.stop_reason, rec.f.hex())
        assert res.trajectory == []
        assert len(got) == len(rec.trajectory) == res.iters + 1
        for (row, _, t), want in zip(got, rec.trajectory):
            assert _same_row(row, want) and t == want.t
        assert all(t is not None for _, _, t in got[:-1])
        if solve is r.conjugate_subgradient_solve:
            # A search that moves walks at least one trial; a null step
            # and the last row, which made no search, add none.
            assert [bool(es) for _, es, _ in got] \
                == [not row.null for row, _, _ in got[:-1]] + [False]
        else:
            assert all(es is None for _, es, _ in got)

    @pytest.mark.parametrize("record", [False, True, "sink"])
    def test_only_a_callable_sink_is_handed_irp_entries(self, monkeypatch,
                                                         record):
        # Unrecorded and record=True solves build no IRP entries: every
        # search gets trace=None.  A sink's solve gives each search a list
        # of its own, which is then handed on with the search's row.
        core, traces = r.solver.line_search, []

        def spy(*args, trace=None, **kwargs):
            traces.append(trace)
            return core(*args, trace=trace, **kwargs)

        monkeypatch.setattr(r.solver, "line_search", spy)
        args = (r.generate_instance("rayleigh", 5, 40, seed=60),
                r.initial_point("rayleigh", 5, 60),
                r.SolverConfig(max_iters=40))
        if record == "sink":
            res, got = _sunk(r.conjugate_subgradient_solve, *args, seed=60)
            assert len(traces) == len(got) - 1 == res.iters >= 1
            assert all(type(trace) is list for trace in traces)
            assert all(es is trace for (_, es, _), trace in zip(got, traces))
            assert len({id(es) for _, es, _ in got}) == len(got)
            assert any(traces) and got[-1][1] == []
        else:
            res = r.conjugate_subgradient_solve(*args, seed=60, record=record)
            assert traces == [None] * res.iters and res.iters >= 1

    def test_width_stop_is_the_search_verdict(self):
        # Row k's width_stop is its search's ``approximate``: a null step
        # never stops at the width, and a search with trials does unless
        # its last trial returned at the optimality test.
        oracle, x0 = _median_at_data_point()
        cases = [(oracle, x0, 44, 5)]
        cases += [(r.generate_instance("rayleigh", 5, 200, seed=57),
                   r.initial_point("rayleigh", 5, 57), 57, 100)]
        flags = Counter()
        for oracle, x0, seed, cap in cases:
            with line_searches() as searches:
                _, got = _sunk(r.conjugate_subgradient_solve, oracle, x0,
                               r.SolverConfig(max_iters=cap), seed=seed)
            assert len(searches) == len(got) - 1
            for (row, entries, _), ls in zip(got, searches):
                # One IRP_FIELDS tuple per trial the search made.
                assert len(entries) == ls.irp_iters
                assert all(type(e) is tuple and len(e) == len(IRP_FIELDS)
                           for e in entries)
                trials = list(r.irp_records(entries))
                returned = bool(trials) and trials[-1]["branch"] == "return"
                assert row.width_stop == ls.approximate \
                    == (not row.null and not returned), row.k
                flags[row.null, row.width_stop] += 1
            assert not got[-1][0].width_stop  # the last row made no search
        assert flags[True, False] and flags[False, True], flags

    def test_sink_time_is_left_out_of_the_clock(self):
        oracle = r.generate_instance("rayleigh", 3, 5, seed=58)
        x0 = r.initial_point("rayleigh", 3, 58)
        rows = []

        def slow(row, entries):
            rows.append(row)
            time.sleep(0.01)

        r.conjugate_subgradient_solve(oracle, x0,
                                      r.SolverConfig(max_iters=20), seed=58,
                                      record=slow)
        assert len(rows) == 21
        assert rows[-1].time_cum_s < 0.1, rows[-1].time_cum_s

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_record_must_be_a_bool_or_a_sink(self, solve):
        # Exactly False, True or a callable: a falsy or truthy stand-in for
        # a bool is rejected too, before any evaluation.
        oracle = CallLog(r.generate_instance("rayleigh", 3, 5, seed=59))
        for record in ("yes", None, 0, 1, np.True_):
            with pytest.raises(TypeError, match="record"):
                solve(oracle, r.initial_point("rayleigh", 3, 59), seed=59,
                      record=record)
        assert sum(oracle.calls.values()) == 0

    def test_stall_hands_on_every_row(self, monkeypatch):
        # The stalled search's row goes to the sink last, with t unset; the
        # error carries the row count and that row's nf_cum.
        stall_search(monkeypatch, 6)
        got = []
        with pytest.raises(r.SolveStalledError) as err:
            r.conjugate_subgradient_solve(
                r.generate_instance("rayleigh", 5, 200, seed=57),
                r.initial_point("rayleigh", 5, 57), seed=57,
                record=lambda row, entries: got.append((row, entries)))
        rows = [row for row, _ in got]
        assert err.value.rows == len(rows) == rows[-1].k
        assert err.value.nf == rows[-1].nf_cum
        assert rows[-1].t is None and rows[-1].k == 6
        assert all(row.t is not None for row in rows[:-1])
        assert len(list(r.irp_records(got[-1][1]))) >= 12
