import subprocess
import sys
import threading

import numpy as np
import pytest

from smwsim import LinearProgram, solve_lp, solve_transportation
from smwsim.lp import InfeasibleFlowError
from smwsim.instances import example1


def test_single_variable():
    sol = solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[3.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_shared_budget():
    sol = solve_lp(LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0], lower=[2.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    assert solve_lp(LinearProgram(c=[1.0])).status == "unbounded"


def test_solver_is_reentrant_across_threads():
    # one thread repeats a bounded solve while another repeats an
    # unbounded one; a status shared between solves would leak across
    A = np.random.default_rng(0).uniform(0.1, 1.0, size=(15, 15))
    bounded = LinearProgram(c=np.ones(15), a_ub=A, b_ub=np.ones(15))
    unbounded = LinearProgram(c=[1.0])
    seen = {"optimal": [], "unbounded": []}
    done = threading.Event()

    def solve_bounded():
        try:
            for _ in range(100):
                seen["optimal"].append(solve_lp(bounded).status)
        finally:
            done.set()

    def solve_unbounded():
        while not done.is_set():
            seen["unbounded"].append(solve_lp(unbounded).status)

    threads = [threading.Thread(target=f)
               for f in (solve_bounded, solve_unbounded)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen["optimal"]) == 100 and seen["unbounded"]
    for status, statuses in seen.items():
        assert set(statuses) == {status}


def test_import_does_not_load_scipy_optimize():
    # a top-level scipy.optimize import would cost every command's start-up
    code = "import sys, smwsim; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_rejects_nan():
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(c=[np.nan]))


def test_free_variable_and_equality():
    # minimize t with t >= 3 - x, t >= x - 1, x in [0, 2]: optimum t=1, x=2
    lp = LinearProgram(c=[0.0, -1.0],
                       a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-3.0, 1.0],
                       lower=[0.0, -np.inf], upper=[2.0, np.inf])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[1] == pytest.approx(1.0, abs=1e-9)


def test_fuzzed_feasibility_and_first_order_optimality():
    rng = np.random.default_rng(0)
    for _ in range(60):
        nvar = int(rng.integers(1, 8))
        nrow = int(rng.integers(1, 6))
        A = rng.normal(size=(nrow, nvar))
        x_feas = rng.uniform(0, 1, nvar)
        b = A @ x_feas + rng.uniform(0, 1, nrow)
        c = rng.normal(size=nvar)
        lp = LinearProgram(c=c, a_ub=A, b_ub=b, upper=np.full(nvar, 10.0))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        x = sol.x
        assert np.all(A @ x <= b + 1e-9)
        assert np.all(x >= -1e-9) and np.all(x <= 10.0 + 1e-9)
        # single-coordinate perturbations that stay feasible cannot improve
        for j in range(nvar):
            for step in (1e-6, -1e-6):
                y = x.copy()
                y[j] += step
                if np.all(A @ y <= b + 1e-9) and -1e-9 <= y[j] <= 10 + 1e-9:
                    assert c @ y <= sol.objective + 1e-7


def test_simplex_terminates_on_degenerate_instances():
    # highly degenerate: many redundant rows through the origin
    rng = np.random.default_rng(1)
    for _ in range(20):
        nvar = int(rng.integers(2, 12))
        A = rng.normal(size=(2 * nvar, nvar))
        b = np.concatenate([np.zeros(nvar), np.ones(nvar)])
        c = rng.normal(size=nvar)
        sol = solve_lp(LinearProgram(c=c, a_ub=A, b_ub=b))
        assert sol.status in ("optimal", "unbounded")


def test_transportation_single_cell():
    flow = solve_transportation([1.0], [1.0], [[5.0]])
    assert flow[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_transportation_mass_conservation():
    rng = np.random.default_rng(2)
    lam = rng.uniform(0.1, 1.0, 4)
    mu = rng.uniform(0.1, 1.0, 3)
    mu *= lam.sum() / mu.sum()
    cost = rng.uniform(0, 10, (4, 3))
    flow = solve_transportation(lam, mu, cost)
    assert np.allclose(flow.sum(axis=1), lam, atol=1e-9)
    assert np.allclose(flow.sum(axis=0), mu, atol=1e-9)
    assert np.all(flow >= -1e-12)


def test_transportation_infeasible_support():
    with pytest.raises(InfeasibleFlowError):
        solve_transportation([0.6, 0.4], [0.5, 0.5],
                             [[1.0, 0.0], [0.0, 1.0]],
                             support=[(0, 0), (1, 1)])


def test_transportation_mismatched_totals():
    with pytest.raises(ValueError, match="totals differ"):
        solve_transportation([1.0], [2.0], [[0.0]])


def test_transportation_feasible_under_pooling():
    net = example1()
    flow = solve_transportation(net.col_rates(), net.row_rates(),
                                np.zeros((2, 2)), support=list(net.edges))
    assert np.allclose(flow.sum(axis=0), net.row_rates(), atol=1e-9)
