"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single line "criterion N: PASS (t s)" on success and
asserts its own runtime budget.  Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time

import numpy as np
import pytest

from smwsim import (
    FluidPolicy,
    PriorityPolicy,
    SmwPolicy,
    TuneConfig,
    estimate_exponent,
    exact_exponent_curve,
    fleet_requirement,
    gamma,
    lyapunov,
    min_drift_speed,
    most_likely_path,
    optimal_alpha,
    run_jump_chain,
    run_timed,
    solve_transportation,
    stationary_drop_probability,
    tune,
    uniform_alpha,
    vanilla_policy,
)
from smwsim.sim import TimedConfig
from smwsim.instances import example1, example1_crp_violated, random_crp, \
    symmetric_ring
from subset_lattice import every_drainable_subset

LOG2 = math.log(2)


class timer:
    def __init__(self, num, limit):
        self.num, self.limit = num, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.num}: over budget ({elapsed:.2f} s)"
            print(f"criterion {self.num}: PASS ({elapsed:.2f} s)")
        else:
            print(f"criterion {self.num}: FAIL ({elapsed:.2f} s)")


def fluid_policy(net):
    flow = solve_transportation(net.col_rates(), net.row_rates(),
                                np.zeros((net.n_supply, net.n_demand)),
                                support=list(net.edges))
    return FluidPolicy(net, flow)


def test_criterion_01_exponent_formula():
    with timer(1, 1.0):
        net = example1()
        g_u = gamma(net, uniform_alpha(2)).gamma
        assert g_u == pytest.approx(0.5 * LOG2, abs=1e-9)
        _, res = optimal_alpha(net, eps_floor=1e-3)
        assert res.gamma == pytest.approx(0.999 * LOG2, abs=1e-9)
        # optimal exponent is twice the vanilla one, up to the floor
        assert res.gamma / g_u == pytest.approx(2.0, abs=3e-3)


def test_criterion_02_exact_chain_agreement():
    with timer(2, 10.0):
        net = example1()
        pol = SmwPolicy(net, [0.5, 0.5])
        sol = stationary_drop_probability(net, pol, 1)
        assert sol.drop_probability == pytest.approx(3 / 10, abs=1e-12)

        # 10 independent replications of 1e5 steps (1e6 total); the
        # cross-replication spread gives an honest standard error in the
        # presence of autocorrelation
        reps = [run_jump_chain(net, pol, 1, 100_000, warmup=10_000, seed=s)
                .drop_fraction for s in range(10)]
        mean = float(np.mean(reps))
        se = float(np.std(reps, ddof=1) / math.sqrt(len(reps)))
        assert abs(mean - 3 / 10) <= 3 * se


def test_criterion_03_exponent_realization():
    with timer(3, 30.0):
        net = example1()
        Ks = [10, 20, 30, 40, 50, 60]
        for alpha, target in [([0.5, 0.5], 0.5 * LOG2),
                              ([0.9, 0.1], 0.9 * LOG2)]:
            curve = exact_exponent_curve(net, SmwPolicy(net, alpha), Ks)
            slope, _ = estimate_exponent(curve)
            assert abs(slope - target) <= 0.15 * target


def test_criterion_04_lp_alpha_local_optimality():
    with timer(4, 60.0):
        rng = np.random.default_rng(100)
        for seed in range(50):
            net = random_crp(4, seed=seed)
            alpha, res = optimal_alpha(net, eps_floor=1e-3)
            stats = every_drainable_subset(net)   # closed or not
            B = np.array([[1.0 if i in st.boundary else 0.0 for i in range(4)]
                          for st in stats])
            logr = np.array([st.log_ratio for st in stats])

            steps = rng.normal(size=(1000, 4))
            steps -= steps.mean(axis=1, keepdims=True)
            steps *= 1e-3 / np.max(np.abs(steps), axis=1, keepdims=True)
            cand = np.clip(alpha + steps, 1e-3, None)
            cand /= cand.sum(axis=1, keepdims=True)
            # renormalizing can push a clipped entry below the floor;
            # only feasible perturbations count
            cand = cand[np.min(cand, axis=1) >= 1e-3 - 1e-12]
            assert len(cand) > 0
            gammas = np.min(logr[None, :] * (cand @ B.T), axis=1)
            assert np.max(gammas) <= res.gamma + 1e-6


def test_criterion_05_rate_path_identities():
    with timer(5, 60.0):
        for seed in range(50):
            net = random_crp(4, seed=seed)
            for alpha in (uniform_alpha(4), optimal_alpha(net)[0]):
                g = gamma(net, alpha).gamma
                path = most_likely_path(net, alpha)
                assert path.drain_time * path.kl_rate == \
                    pytest.approx(g, abs=1e-9)
                v = min_drift_speed(net, alpha, path.f_star)
                assert path.kl_rate / v == pytest.approx(g, abs=1e-6)


def test_criterion_06_uniform_within_factor_n():
    with timer(6, 120.0):
        for seed in range(500):
            n = 2 + seed % 4
            net = random_crp(n, seed=1000 + seed)
            _, res = optimal_alpha(net, eps_floor=1e-3)
            g_u = gamma(net, uniform_alpha(n)).gamma
            assert g_u >= res.gamma / n - 1e-9


def test_criterion_07_crp_violation_floor():
    with timer(7, 60.0):
        net = example1_crp_violated()
        policies = [
            vanilla_policy(net),
            SmwPolicy(net, [0.9, 0.1]),
            SmwPolicy(net, [0.1, 0.9]),
            PriorityPolicy(net, [[0], [1, 0]]),
            PriorityPolicy(net, [[0], [0, 1]]),
        ]
        # no static fluid policy exists here: the flow LP is infeasible on
        # this instance, which is the same deficit that forces the floor
        for pol in policies:
            for K in range(1, 41):
                sol = stationary_drop_probability(net, pol, K)
                assert sol.drop_probability >= 0.125 - 1e-12


def test_criterion_08_state_independent_separation():
    with timer(8, 60.0):
        net = example1()
        Ks = [10, 20, 30, 40, 50, 60]
        v_curve = exact_exponent_curve(net, vanilla_policy(net), Ks)
        f_curve = exact_exponent_curve(net, fluid_policy(net), Ks)
        v_slope, v_r2 = estimate_exponent(v_curve)
        f_slope, f_r2 = estimate_exponent(f_curve)
        assert f_slope < 0.25 * v_slope
        assert f_r2 < v_r2 - 0.005
        assert f_r2 < 0.99


def test_criterion_09_lyapunov_properties():
    with timer(9, 60.0):
        rng = np.random.default_rng(200)
        n = 3
        for _ in range(10_000):
            alpha = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            alpha /= alpha.sum()
            dx = rng.normal(size=n) * 0.01
            dx -= dx.mean()
            dy = rng.normal(size=n) * 0.01
            dy -= dy.mean()
            c = rng.uniform(0.1, 1.0)
            if np.all(alpha + dx > 0) and np.all(alpha + c * dx > 0):
                assert lyapunov(alpha, alpha + c * dx) == pytest.approx(
                    c * lyapunov(alpha, alpha + dx), abs=1e-12)
            if np.all(alpha + dx > 0) and np.all(alpha + dy > 0) \
                    and np.all(alpha + dx + dy > 0):
                assert lyapunov(alpha, alpha + dx + dy) <= \
                    lyapunov(alpha, alpha + dx) + \
                    lyapunov(alpha, alpha + dy) + 1e-12
            x1, x2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            bound = np.max(np.abs(x1 - x2)) / alpha.min()
            assert abs(lyapunov(alpha, x1) - lyapunov(alpha, x2)) \
                <= bound + 1e-12


def test_criterion_10_timed_conservation_and_littles_law():
    with timer(10, 300.0):
        city = symmetric_ring(6, with_times=True)
        rate = 2.0
        fr = fleet_requirement(city, rate)
        horizon = 500_000.0          # about 1e6 arrival events at rate 2/min
        cfg = TimedConfig(rate, horizon, fr.k_fl + 60)
        rep = run_timed(city, vanilla_policy(city), cfg, with_pickup=True,
                        seed=42, check_conservation=True)
        # about 1e6 events total; arrivals are counted after the warmup cut
        assert rep.arrivals >= 750_000
        throughput = (1 - rep.drop_fraction) * rate
        assert rep.mean_in_transit / throughput == pytest.approx(
            rep.mean_trip_minutes, rel=0.02)


def test_criterion_11_tuner_sanity():
    with timer(11, 120.0):
        net = example1()
        cfg = TuneConfig(budget=400, seed=3)
        res = tune(net, cfg)
        assert res.alpha[0] >= 0.8

        res2 = tune(net, cfg)
        assert np.array_equal(res.alpha, res2.alpha)
        assert len(res.trace) == len(res2.trace)
        for ra, rb in zip(res.trace, res2.trace):
            assert np.array_equal(ra[2], rb[2]) and ra[4] == rb[4]

        # paired comparison against vanilla on fresh common seeds
        tuned_pol = SmwPolicy(net, res.alpha)
        van_pol = vanilla_policy(net)
        diffs = []
        for s in range(500, 510):
            t = run_jump_chain(net, tuned_pol, cfg.K, cfg.steps, seed=s)
            v = run_jump_chain(net, van_pol, cfg.K, cfg.steps, seed=s)
            diffs.append(t.drop_fraction - v.drop_fraction)
        mean = float(np.mean(diffs))
        se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        assert mean <= 2 * se
