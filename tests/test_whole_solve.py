"""Whole solves on degenerate inputs, for both solvers.

A conjugate subgradient solve either ends with a named stop reason, or
fails with an error that a bench cell turns into an error row
(``bench._run_cell``); a run that ends keeps monotone descent and, but on
nearly singular SPD data, the norm recursion.  A subgradient
solve ends at a finite f or with such an error.  The inputs are the edges
of the problem families: one data term and the circle S^1 or SPD(1),
repeated median points, a start at a median point or its antipode, nearly
singular SPD data and start brackets far wider than the default.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcsopt as r

STOPS = {"stationary", "edge_stop", "null_steps", "max_iters"}
# What ``bench._run_cell`` records as an error row instead of a result.
ERROR_ROW = (r.SolveStalledError, ValueError, ArithmeticError)
MAX_ITERS = 60

seeds = st.integers(0, 2 ** 16)
sizes = st.sampled_from([1, 2, 3])
wide = st.sampled_from([None, (1e2, 1e4), (1e3, 1e6), (1e5, 1e9)])


def _cfg(tau):
    ls = r.LineSearchConfig() if tau is None \
        else r.LineSearchConfig(tau_init=tau[0], tau_hi_init=tau[1])
    return r.SolverConfig(max_iters=MAX_ITERS, ls=ls)


def _unit(rng, n):
    v = rng.standard_normal(n + 1)
    return v / np.linalg.norm(v)


def _solve(solve, oracle, x0, cfg, seed):
    """The solve's result, or None where a bench cell has an error row."""
    try:
        return solve(oracle, x0, cfg, seed=seed)
    except ERROR_ROW:
        return None


def check_both(oracle, x0, cfg, seed, recursion=True):
    """The invariants of both solvers from x0, the norm recursion only with
    ``recursion``; the conjugate result."""
    res = _solve(r.conjugate_subgradient_solve, oracle, x0, cfg, seed)
    if res is not None:
        assert res.stop_reason in STOPS
        assert math.isfinite(res.f)
        check = r.check_trajectory(res.trajectory)
        assert check.descent_violations == 0, res.stop_reason
        assert not recursion \
            or check.norm_residual <= r.solver.NORM_RESIDUAL_MAX, \
            (check.norm_residual, res.stop_reason)
    sub = _solve(r.subgradient_descent_solve, oracle, x0, cfg, seed)
    assert sub is None or math.isfinite(sub.f)
    return res


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["rayleigh", "median", "karcher"]), n=sizes,
       m=sizes, seed=seeds, tau=wide)
@example(kind="median", n=1, m=1, seed=0, tau=None)
@example(kind="karcher", n=1, m=1, seed=0, tau=(1e3, 1e6))
def test_small_generated_instances(kind, n, m, seed, tau):
    oracle = r.generate_instance(kind, n, m, seed)
    check_both(oracle, r.initial_point(kind, n, seed), _cfg(tau), seed)


@settings(max_examples=30, deadline=None)
@given(n=sizes, copies=st.integers(1, 4), others=st.integers(0, 2),
       start=st.sampled_from(["point", "antipode", "random"]), seed=seeds,
       tau=wide)
def test_repeated_median_points(n, copies, others, start, seed, tau):
    # ``copies`` equal points plus ``others`` random ones, equal weights,
    # from the repeated point, its antipode or a random start.
    rng = np.random.default_rng(seed)
    p = _unit(rng, n)
    pts = np.array([p] * copies + [_unit(rng, n) for _ in range(others)])
    m = len(pts)
    oracle = r.GeometricMedian(n, m, pts, np.full(m, 1.0 / m))
    x0 = {"point": p, "antipode": -p, "random": _unit(rng, n)}[start]
    check_both(oracle, oracle.manifold.point(x0), _cfg(tau), seed)


@settings(max_examples=30, deadline=None)
@given(n=sizes, angle=st.floats(0.0, 180.0), copies=st.integers(1, 4),
       seed=seeds, tau=wide)
@example(n=2, angle=80.0, copies=1, seed=0, tau=None)
@example(n=2, angle=180.0, copies=4, seed=0, tau=None)
def test_one_point_median_stops_stationary_only_at_the_point(
        n, angle, copies, seed, tau):
    # f(x) = arccos(<p, x>) has a subgradient of norm 1 everywhere but at
    # p, its minimum, so a stationary stop anywhere else is false.  The
    # examples are the starts at 80 degrees and at the antipode where an
    # edge stop once ended as "stationary" at f = 0.134 and 1.879.
    e1 = np.zeros(n + 1)
    e1[0] = 1.0
    oracle = r.GeometricMedian(n, copies, np.array([e1] * copies),
                               np.full(copies, 1.0 / copies))
    a = math.radians(angle)
    x0 = np.zeros(n + 1)
    x0[0], x0[-1] = math.cos(a), math.sin(a)
    res = check_both(oracle, oracle.manifold.point(x0), _cfg(tau), seed)
    if res is not None and res.stop_reason == "stationary":
        assert res.f <= 1e-5, res.f


@settings(max_examples=30, deadline=None)
@given(n=sizes, m=sizes, tiny=st.floats(1e-12, 1e-6), seed=seeds, tau=wide)
def test_nearly_singular_spd_data(n, m, tiny, seed, tau):
    # Each matrix has one eigenvalue ``tiny`` or above, the rest in [1, 2]:
    # a condition number up to 2e12.  The iterates reach that conditioning,
    # where the SPD metric's norms carry relative round-off far above the
    # norm recursion's 1e-6 (n = 2, m = 1, tiny = 1e-12, seed 0: residual
    # 5.0e-5 at 51 zero steps), so only descent and the stop are checked.
    rng = np.random.default_rng(seed)
    mats = np.empty((m, n, n))
    for i in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(1.0, 2.0, n)
        lam[0] = tiny * rng.uniform(1.0, 2.0)
        mats[i] = (q * lam) @ q.T
        mats[i] = 0.5 * (mats[i] + mats[i].T)
    oracle = r.SpdCenterOfMass(n, m, mats)
    x0 = r.SPD(n).random_point(rng)
    check_both(oracle, x0, _cfg(tau), seed, recursion=False)
