import json
import math
import tracemalloc

import numpy as np
import pytest

import rcsopt as r
from rcsopt import bench
from rcsopt.bench import (BenchmarkRecord, EmptySuiteError, SuiteSpec,
                          performance_profile, profiles_to_csv, run_suite,
                          solver_config_from_dict)

from oracles import brute_force_profile


def rec(problem, solver, time_s, f, seed=0, solved=None):
    return BenchmarkRecord(problem=problem, solver=solver, seed=seed,
                           iters=10, nf=20, wall_time_s=time_s, final_f=f,
                           solved=solved)


class TestAdjudicate:
    def test_single_solver_always_solved(self):
        records = [rec("p0", "a", 1.0, 3.1415)]
        f_opt = r.adjudicate(records)
        assert f_opt == 3.1415
        assert records[0].solved is True

    def test_boundary_of_criterion(self):
        f_opt = -2.0
        just_in = f_opt + 1e-7 * (abs(f_opt) + 1.0)
        just_out = f_opt + 2e-7 * (abs(f_opt) + 1.0)
        records = [rec("p0", "a", 1.0, f_opt),
                   rec("p0", "b", 1.0, just_in),
                   rec("p0", "c", 1.0, just_out)]
        r.adjudicate(records)
        assert [x.solved for x in records] == [True, True, False]

    def test_exact_tie_both_solved(self):
        records = [rec("p0", "a", 1.0, 5.0), rec("p0", "b", 2.0, 5.0)]
        r.adjudicate(records)
        assert all(x.solved for x in records)

    def test_empty_rejected(self):
        with pytest.raises(EmptySuiteError):
            r.adjudicate([])

    def test_nan_final_f_ignored_in_either_order(self):
        for order in ((math.nan, 1.0), (1.0, math.nan)):
            records = [rec("p0", s, 1.0, f) for s, f in zip("ab", order)]
            assert r.adjudicate(records) == 1.0
            assert [x.solved for x in records] \
                == [not math.isnan(f) for f in order]

    def test_no_finite_final_f_solves_nothing(self):
        records = [rec("p0", "a", 1.0, math.nan),
                   rec("p0", "b", 1.0, math.inf)]
        assert r.adjudicate(records) == math.inf
        assert not any(x.solved for x in records)


class TestPerformanceProfile:
    def test_two_solver_example(self):
        records = [rec("p0", "a", 2.0, 1.0), rec("p0", "b", 4.0, 1.0)]
        curves = {c.solver: c for c in performance_profile(records)}
        assert curves["a"].rho_at(1.0) == 1.0
        assert curves["b"].rho_at(1.0) == 0.0
        assert curves["b"].rho_at(2.0) == 1.0

    def test_unsolved_solver_stays_at_zero(self):
        records = [rec("p0", "a", 1.0, 0.0), rec("p0", "b", 1.0, 99.0),
                   rec("p1", "a", 1.0, 0.0), rec("p1", "b", 1.0, 99.0)]
        curves = {c.solver: c for c in performance_profile(records)}
        assert curves["b"].rho_at(1e12) == 0.0
        assert np.all(curves["b"].rhos == 0.0)

    def test_identical_times_all_jump_at_one(self):
        records = [rec("p0", "a", 3.0, 1.0), rec("p0", "b", 3.0, 1.0),
                   rec("p1", "a", 2.0, 0.5), rec("p1", "b", 2.0, 0.5)]
        for c in performance_profile(records):
            assert c.rho_at(1.0) == 1.0

    def test_ratios_at_least_one_and_min_is_one(self):
        rng = np.random.default_rng(0)
        records = []
        for p in range(12):
            for s in ("a", "b", "c"):
                records.append(rec(f"p{p}", s, float(rng.uniform(0.1, 9.0)),
                                   float(rng.integers(0, 2))))
        curves = performance_profile(records)
        finite = np.concatenate([c.ratios[np.isfinite(c.ratios)]
                                 for c in curves])
        assert np.all(finite >= 1.0)
        stacked = np.stack([c.ratios for c in curves])
        solved_any = np.isfinite(stacked).any(axis=0)
        assert np.all(stacked[:, solved_any].min(axis=0) == 1.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(1)
        records = [rec(f"p{p}", s, float(rng.uniform(0.1, 5.0)),
                       float(rng.normal()))
                   for p in range(8) for s in ("a", "b")]
        for c in performance_profile(records):
            assert np.all(np.diff(c.rhos) >= 0.0)
            assert np.all((0.0 <= c.rhos) & (c.rhos <= 1.0))

    def test_matches_brute_force_oracle(self):
        # 100 randomized record sets, exact equality of step values
        rng = np.random.default_rng(2)
        for trial in range(100):
            n_p = int(rng.integers(1, 20))
            n_s = int(rng.integers(1, 5))
            solvers = [f"s{j}" for j in range(n_s)]
            records = []
            for p in range(n_p):
                fbest = float(rng.normal())
                for s in solvers:
                    f = fbest + float(rng.choice(
                        [0.0, 5e-8 * (abs(fbest) + 1), 1.0]))
                    records.append(rec(f"p{p}", s,
                                       float(rng.uniform(0.05, 4.0)), f))
            r.adjudicate_all(records)
            curves = {c.solver: c for c in performance_profile(records)}
            for tau in rng.uniform(1.0, 10.0, size=5):
                for s in solvers:
                    assert curves[s].rho_at(float(tau)) == pytest.approx(
                        brute_force_profile(records, s, float(tau)), abs=0)

    def test_empty_rejected(self):
        with pytest.raises(EmptySuiteError):
            performance_profile([])


class TestSuiteSpec:
    def test_json_round_trip(self):
        spec = SuiteSpec(kind="rayleigh", sizes=((3, 4), (5, 6)), runs=2,
                         base_seed=7, solvers=("conjugate_subgradient",),
                         solver_configs={"conjugate_subgradient":
                                         {"max_iters": 30}})
        back = SuiteSpec.from_json(spec.to_json())
        assert back == spec

    def test_empty_sizes_rejected(self):
        with pytest.raises(EmptySuiteError):
            SuiteSpec(kind="rayleigh", sizes=())

    def test_zero_runs_rejected(self):
        with pytest.raises(EmptySuiteError):
            SuiteSpec(kind="rayleigh", sizes=((3, 4),), runs=0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            SuiteSpec(kind="rayleigh", sizes=((3, 4),), solvers=("nope",))

    def test_solver_config_parsing(self):
        cfg = solver_config_from_dict(
            {"max_iters": 12, "ls": {"interval_tol": 1e-4}})
        assert cfg.max_iters == 12
        assert cfg.ls.interval_tol == 1e-4


def tiny_spec(**kw):
    args = dict(kind="rayleigh", sizes=((3, 4),), runs=2, base_seed=0,
                solvers=("conjugate_subgradient", "subgradient"),
                solver_configs={
                    "conjugate_subgradient": {"max_iters": 40},
                    "subgradient": {"max_iters": 60}})
    args.update(kw)
    return SuiteSpec(**args)


class TestInitialPoint:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind 'nope'"):
            r.initial_point("nope", 3, 1)


class TestRunSuite:
    def test_records_shape_and_summary(self):
        out = run_suite(tiny_spec())
        assert len(out.records) == 2 * 2
        assert all(x.nf >= x.iters for x in out.records)
        assert all(x.wall_time_s >= 0.0 for x in out.records)
        assert all(x.solved is not None for x in out.records)
        by = {(row["solver"],): row for row in out.summary}
        for row in out.summary:
            matching = [x for x in out.records if x.solver == row["solver"]]
            assert row["mean_iters"] == pytest.approx(
                np.mean([x.iters for x in matching]), abs=1e-12)
            assert row["mean_nf"] == pytest.approx(
                np.mean([x.nf for x in matching]), abs=1e-12)

    def test_deterministic_modulo_time(self):
        a = run_suite(tiny_spec())
        b = run_suite(tiny_spec())
        for x, y in zip(a.records, b.records):
            assert (x.problem, x.solver, x.seed) == (y.problem, y.solver,
                                                     y.seed)
            assert x.final_f == y.final_f
            assert x.iters == y.iters and x.nf == y.nf

    def test_instance_seeds_derive_from_base(self):
        out = run_suite(tiny_spec(base_seed=100))
        seeds = sorted({x.seed for x in out.records})
        assert seeds == [100, 101]

    def test_parallel_matches_serial(self):
        a = run_suite(tiny_spec())
        b = run_suite(tiny_spec(), jobs=2)
        for x, y in zip(a.records, b.records):
            assert x.final_f == y.final_f and x.nf == y.nf

    def test_trace_dir_writes_cell_files(self, tmp_path):
        spec = tiny_spec()
        dirs = {}
        for jobs in (1, 2):
            dirs[jobs] = tmp_path / f"jobs{jobs}"
            dirs[jobs].mkdir()
            out = run_suite(spec, jobs=jobs, trace_dir=dirs[jobs])
            stems = {f"{x.problem}_{x.solver}.jsonl" for x in out.records}
            assert {p.name for p in dirs[jobs].glob("traj_*")} \
                == {f"traj_{s}" for s in stems}
            assert {p.name for p in dirs[jobs].glob("irp_*")} \
                == {f"irp_{s}" for s in stems if "conjugate" in s}
        for path in dirs[1].glob("irp_*"):
            assert path.read_bytes() == (dirs[2] / path.name).read_bytes()

        def rows(path):
            out = [json.loads(line) for line in path.read_text().splitlines()]
            for row in out:
                del row["time_cum_s"]
            return out

        for path in dirs[1].glob("traj_*"):
            assert rows(path) == rows(dirs[2] / path.name)

    def test_median_and_karcher_suites(self):
        for kind in ("median", "karcher"):
            spec = tiny_spec(kind=kind)
            out = run_suite(spec)
            assert len(out.records) == 4
            assert all(math.isfinite(x.final_f) for x in out.records)


class TestTracedCellMemory:
    """A traced cell's memory grows with its line searches, not with its
    trials, and its trace files are streamed rather than built as one
    string; an untraced cell keeps no tangent vectors at all."""

    CELL = ("rayleigh", 5, 200, 3, "conjugate_subgradient")
    CFG = r.SolverConfig(max_iters=200)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def _recorded_solve(self):
        """The traced cell's work without its files: the same instance
        solved with record=True."""
        kind, n, m, seed, _ = self.CELL
        return r.conjugate_subgradient_solve(
            r.generate_instance(kind, n, m, seed),
            r.initial_point(kind, n, seed), self.CFG, seed=seed, record=True)

    def test_traced_peak_close_to_recorded_solve(self, tmp_path):
        # The files add little to what a recorded solve holds anyway; an
        # untraced cell, which records nothing, peaks below that.
        self._peak(bench._run_cell, *self.CELL, self.CFG, None)  # warm up
        untraced, plain = self._peak(bench._run_cell, *self.CELL, self.CFG,
                                     None)
        recorded, res = self._peak(self._recorded_solve)
        traced, rec = self._peak(bench._run_cell, *self.CELL, self.CFG,
                                 tmp_path)
        assert rec.error is None and (rec.iters, rec.nf, rec.final_f) \
            == (plain.iters, plain.nf, plain.final_f) \
            == (res.iters, res.nf, res.f)
        assert traced <= 1.25 * recorded, (traced, recorded)
        assert untraced < recorded, (untraced, recorded)

    def test_irp_file_is_the_trace_records(self, tmp_path):
        rec = bench._run_cell(*self.CELL, self.CFG, tmp_path)
        trace = self._recorded_solve().irp_trace
        path = tmp_path / f"irp_{rec.problem}_{rec.solver}.jsonl"
        lines = path.read_text().splitlines()
        assert lines == [json.dumps(x) for x in r.irp_records(trace)]
        assert len(lines) > len(trace)  # runs of failures are one entry


class TestErrorRows:
    # A solver raising numpy's LinAlgError, as an eigendecomposition that
    # does not converge would; it takes the traced cells' record keyword.
    NUMPY_ERROR = dict(kind="karcher", sizes=((5, 10),), runs=2,
                       solvers=("numpy_error",))

    @staticmethod
    def _numpy_error(oracle, x0, cfg=None, seed=0, record=False):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numpy_error_becomes_error_row(self, monkeypatch, jobs):
        monkeypatch.setitem(bench.SOLVERS, "numpy_error", self._numpy_error)
        out = run_suite(SuiteSpec(**self.NUMPY_ERROR), jobs=jobs)
        assert len(out.records) == 2
        for x in out.records:
            assert x.error == "LinAlgError: Eigenvalues did not converge"
            assert (x.iters, x.nf, x.final_f, x.solved) \
                == (0, 0, math.inf, False)

    def test_error_row_writes_no_trace_files(self, monkeypatch, tmp_path):
        monkeypatch.setitem(bench.SOLVERS, "numpy_error", self._numpy_error)
        out = run_suite(SuiteSpec(**self.NUMPY_ERROR), trace_dir=tmp_path)
        assert len(out.records) == 2 and all(x.error for x in out.records)
        assert not list(tmp_path.iterdir())

    def test_raising_solver_leaves_other_cells_intact(self, monkeypatch):
        def broken(oracle, x0, cfg=None, seed=0):
            raise r.DegenerateTransportError("antipodal endpoints")

        monkeypatch.setitem(bench.SOLVERS, "broken", broken)
        clean = run_suite(tiny_spec())
        out = run_suite(tiny_spec(solvers=("conjugate_subgradient", "broken",
                                           "subgradient")))
        bad = [x for x in out.records if x.solver == "broken"]
        assert [x.error for x in bad] \
            == ["DegenerateTransportError: antipodal endpoints"] * 2
        good = [x for x in out.records if x.solver != "broken"]
        assert [(x.problem, x.solver, x.iters, x.nf, x.final_f, x.solved)
                for x in good] \
            == [(x.problem, x.solver, x.iters, x.nf, x.final_f, x.solved)
                for x in clean.records]

    def test_malformed_config_still_raises(self):
        spec = tiny_spec(solver_configs={
            "conjugate_subgradient": {"max_iters": 0}})
        with pytest.raises(ValueError, match="max_iters"):
            run_suite(spec)

    @pytest.mark.parametrize("configs,match", [
        ({"conjugate_subgradent": {"max_iters": 5}}, "conjugate_subgradent"),
        ({"conjugate_subgradient": {"max_iter": 5}},
         "conjugate_subgradient.*max_iter"),
        ({"subgradient": {"ls": {"tau": 2.0}}}, "subgradient.*tau"),
        # The bracket always starts at 0; the old start field is unknown.
        ({"conjugate_subgradient": {"ls": {"tau_lo_init": 0.5}}},
         "conjugate_subgradient.*tau_lo_init"),
    ])
    def test_bad_config_raises_before_any_cell(self, monkeypatch, configs,
                                               match):
        # A misspelled solver key or an unknown field is reported up front,
        # naming the solver and the field, before a single cell runs.
        calls = []

        def stub(oracle, x0, cfg=None, seed=0):
            calls.append(seed)
            raise AssertionError("no cell may run")

        for name in ("conjugate_subgradient", "subgradient"):
            monkeypatch.setitem(bench.SOLVERS, name, stub)
        with pytest.raises(ValueError, match=match):
            run_suite(tiny_spec(solver_configs=configs))
        assert calls == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raises_before_any_cell(self, monkeypatch, jobs):
        calls = []

        def stub(oracle, x0, cfg=None, seed=0):
            calls.append(seed)
            raise AssertionError("no cell may run")

        monkeypatch.setitem(bench.SOLVERS, "conjugate_subgradient", stub)
        spec = tiny_spec(sizes=((2, 3),), runs=1,
                         solvers=("conjugate_subgradient",), solver_configs={})
        with pytest.raises(ValueError, match=rf"jobs must be >= 1, got {jobs}"):
            run_suite(spec, jobs=jobs)
        assert calls == []


class TestPersistence:
    def test_records_csv_round_trip(self):
        out = run_suite(tiny_spec())
        text = r.records_to_csv(out.records)
        back = r.records_from_csv(text)
        assert back == out.records

    def test_profiles_csv_well_formed(self):
        out = run_suite(tiny_spec())
        text = profiles_to_csv(out.profiles)
        lines = text.strip().splitlines()
        assert lines[0] == "solver,tau,rho"
        assert len(lines) > 2
        for line in lines[1:]:
            solver, tau, rho = line.split(",")
            assert float(tau) >= 1.0
            assert 0.0 <= float(rho) <= 1.0

    def test_inf_final_f_round_trips(self):
        records = [rec("p0", "a", 1.0, math.inf, solved=False)]
        back = r.records_from_csv(r.records_to_csv(records))
        assert math.isinf(back[0].final_f)
