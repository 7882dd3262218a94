import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import smwsim
from smwsim import LinearProgram, solve_lp, solve_transportation
from smwsim.lp import InfeasibleFlowError
from smwsim import optimal_alpha
from smwsim.instances import example1, random_crp, symmetric_ring


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
    # and compiling the CLI module would too, where no bytecode is cached
    code = ("import sys, smwsim; print('scipy.optimize' in sys.modules, "
            "'smwsim.cli' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(smwsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False False"


def test_rejects_nan():
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(c=[np.nan]))


def test_free_variable_and_equality():
    from scipy.optimize import linprog
    cases = [
        # minimize t with t >= 3 - x, t >= x - 1, x in [0, 2]
        (LinearProgram(c=[0.0, -1.0],
                       a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-3.0, 1.0],
                       lower=[0.0, -np.inf], upper=[2.0, np.inf]),
         [2.0, 1.0]),
        # free y capped at 1.5: the y+ - y- cap row binds
        (LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0],
                       lower=[0.0, -np.inf], upper=[np.inf, 1.5]),
         [2.5, 1.5]),
        # negative finite lower bounds; the shifted cap on x0 binds
        (LinearProgram(c=[3.0, -2.0], a_ub=[[1.0, -1.0]], b_ub=[1.2],
                       lower=[-2.0, -1.0], upper=[0.5, np.inf]),
         [0.5, -0.7]),
        # equality row with a capped and a negatively shifted variable
        (LinearProgram(c=[1.0, 2.0, 3.0], a_ub=[[-1.0, 1.0, 0.0]],
                       b_ub=[0.5], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                       lower=[-0.5, 0.0, 0.0], upper=[1.0, 1.0, 0.25]),
         [0.125, 0.625, 0.25]),
        # equality row forcing a capped free variable below -cap
        (LinearProgram(c=[-1.0, -1.0], a_eq=[[1.0, -1.0]], b_eq=[-3.0],
                       lower=[-np.inf, 0.0], upper=[2.0, 4.0]),
         [-3.0, 0.0]),
    ]
    for lp, expected in cases:
        ref = linprog(-lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                      b_eq=lp.b_eq, bounds=list(zip(lp.lower, lp.upper)),
                      method="highs")
        assert ref.status == 0
        assert ref.x == pytest.approx(expected, abs=1e-9)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx(expected, abs=1e-9)
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)


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


def _fuzzed_lps():
    """The LPs of the fuzzed and degenerate tests above, drawn the same
    way, plus mixed ones with free, shifted, capped and equality columns
    and rows, some equality rows repeated."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        nvar = int(rng.integers(1, 8))
        nrow = int(rng.integers(1, 6))
        A = rng.normal(size=(nrow, nvar))
        b = A @ rng.uniform(0, 1, nvar) + rng.uniform(0, 1, nrow)
        c = rng.normal(size=nvar)
        yield LinearProgram(c=c, a_ub=A, b_ub=b, upper=np.full(nvar, 10.0))
    rng = np.random.default_rng(1)
    for _ in range(20):
        nvar = int(rng.integers(2, 12))
        A = rng.normal(size=(2 * nvar, nvar))
        b = np.concatenate([np.zeros(nvar), np.ones(nvar)])
        yield LinearProgram(c=rng.normal(size=nvar), a_ub=A, b_ub=b)
    rng = np.random.default_rng(2)
    for _ in range(100):
        nvar = int(rng.integers(1, 8))
        A = rng.normal(size=(int(rng.integers(0, 6)), nvar))
        a_eq = rng.normal(size=(int(rng.integers(0, 3)), nvar))
        if a_eq.size and rng.random() < 0.5:
            a_eq = np.vstack([a_eq, a_eq[:1]])
        x0 = rng.uniform(-1, 1, nvar)
        lower = np.where(rng.random(nvar) < 0.3, -np.inf,
                         rng.uniform(-2, 0.5, nvar))
        upper = np.where(rng.random(nvar) < 0.4, rng.uniform(0.6, 3, nvar),
                         np.inf)
        yield LinearProgram(c=rng.normal(size=nvar), a_ub=A,
                            b_ub=A @ x0 + rng.uniform(-0.3, 1, len(A)),
                            a_eq=a_eq, b_eq=a_eq @ x0, lower=lower,
                            upper=upper)


# sha256 over (status, x bytes, iterations) of every _fuzzed_lps() solve,
# recorded before the unit-column pivots and the in-place phase 2
FUZZED_LP_DIGEST = (
    "4cabd69b06f44a16c6a889f09c0430ef86b01ae6d1f6c4e030c86e1575c657e7")


def test_fuzzed_lps_pinned_bit_for_bit():
    h = hashlib.sha256()
    statuses = set()
    for lp in _fuzzed_lps():
        sol = solve_lp(lp)
        statuses.add(sol.status)
        h.update(sol.status.encode())
        h.update(b"" if sol.x is None else sol.x.tobytes())
        h.update(sol.iterations.to_bytes(4, "little"))
    assert statuses == {"optimal", "unbounded", "infeasible"}
    assert h.hexdigest() == FUZZED_LP_DIGEST


def test_near_tie_leaves_by_lowest_basis_index():
    # x enters with both artificials basic; the ratios 1 + 5e-12 (row 0)
    # and 1 (row 1) lie within PIVOT_TOL, so row 0, whose artificial has
    # the lower index, leaves although its ratio is the larger one
    sol = solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0], [1.0]],
                                 b_ub=[1.0 + 5e-12, 1.0]))
    assert sol.status == "optimal"
    assert sol.x.tolist() == [1.0 + 5e-12] and sol.iterations == 2


def test_fuzzed_lps_take_both_ratio_test_paths(monkeypatch):
    # the digest above guards the direct minimum and Bland's scan only
    # if the fuzzed LPs reach both
    import smwsim.lp as lp_module
    calls = {"_ratio_test": 0, "_bland_scan": 0}
    for name in calls:
        def spy(*args, name=name, f=getattr(lp_module, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(lp_module, name, spy)
    for lp in _fuzzed_lps():
        solve_lp(lp)
    assert 0 < calls["_bland_scan"] < calls["_ratio_test"]


def _home_run_lps():
    """LPs with tens of <= rows on a few columns, most with b >= 0: phase
    1 enters most slacks at home (each still e_r of its own row), in runs
    that a structural column turning negative or an already negative
    stored column cuts short.  A few rows need a -e_r slack, some LPs
    have an equality row or capped columns, some are infeasible."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        nvar = int(rng.integers(2, 6))
        A = rng.normal(size=(int(rng.integers(10, 60)), nvar))
        x0 = rng.uniform(0, 1, nvar)
        a_eq = rng.normal(size=(int(rng.integers(0, 2)), nvar))
        yield LinearProgram(c=rng.normal(size=nvar), a_ub=A,
                            b_ub=A @ x0 + rng.uniform(-0.05, 1, len(A)),
                            a_eq=a_eq, b_eq=a_eq @ x0,
                            upper=np.where(rng.random(nvar) < 0.5, 2.0,
                                           np.inf))


def _alpha_lps():
    """The alpha LPs of example1, symmetric_ring(10) and random_crp(n) for
    n in 3, 4, 8, 12, 14, 15, 16 at seeds 0-2, as optimal_alpha builds
    them."""
    import smwsim.exponent as exponent
    lps, solve = [], exponent.solve_lp
    nets = [example1(), symmetric_ring(10)] + [
        random_crp(n, seed=s) for n in (3, 4, 8, 12, 14, 15, 16)
        for s in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponent, "solve_lp",
                   lambda lp: lps.append(lp) or solve(lp))
        for net in nets:
            optimal_alpha(net)
    return lps


def test_solve_lp_is_the_dense_bland_tableau_bit_for_bit():
    # the stored columns, the home runs and the direct ratio minimum are
    # shortcuts: each LP takes the plain dense tableau's pivots and returns
    # its bits
    from simplex_reference import solve_dense
    lps = [*_fuzzed_lps(), *_home_run_lps(), *_alpha_lps()]
    assert len(lps) == 243
    statuses = set()
    for lp in lps:
        sol, (status, x, iterations) = solve_lp(lp), solve_dense(lp)
        assert (sol.status, sol.iterations) == (status, iterations)
        assert (sol.x is None and x is None
                or sol.x.tobytes() == x.tobytes())
        statuses.add(status)
    assert statuses == {"optimal", "unbounded", "infeasible"}


def test_home_runs_take_both_stop_paths(monkeypatch):
    # after a batched run, Bland's next column is not a home column: one
    # that turned negative during the run (the accumulate's stop), or one
    # that was negative before it (the end of the candidate list)
    from smwsim.lp import _Tableau
    ends = {"turned negative": 0, "already negative": 0}
    run = _Tableau._home_run

    def spy(tab, enter, usable):
        before = tab.neg[:usable].copy()
        k = run(tab, enter, usable)
        after = tab.neg[:usable]
        e = int(after.argmax())
        if k > 1 and after[e] and (tab.pos[e] >= 0 or tab.sign[e] < 0):
            assert before[e] or tab.pos[e] >= 0   # no unit column turns
            ends["already negative" if before[e] else "turned negative"] += 1
        return k
    monkeypatch.setattr(_Tableau, "_home_run", spy)
    for lp in _home_run_lps():
        solve_lp(lp)
    assert min(ends.values()) > 0


def test_iteration_cap_still_binds(monkeypatch):
    # phase 1 needs exactly `iterations` pivots on an infeasible LP, most
    # of them in home runs: a cap of that many or fewer raises, one more
    # lets the same answer through
    import smwsim.lp as lp_module
    lps = [(lp, sol.iterations) for lp in _home_run_lps()
           for sol in [solve_lp(lp)] if sol.status == "infeasible"]
    assert lps
    for lp, iterations in lps:
        for cap in (iterations // 2, iterations):
            monkeypatch.setattr(lp_module, "MAX_ITER", cap)
            with pytest.raises(RuntimeError, match="exceeded in phase 1"):
                solve_lp(lp)
        monkeypatch.setattr(lp_module, "MAX_ITER", iterations + 1)
        assert solve_lp(lp).status == "infeasible"


def test_alpha_lp_home_pivots_run_in_few_batches(monkeypatch):
    # n = 15: 140 of the LP's 188 pivots enter a home column
    from smwsim.lp import _Tableau
    runs = []
    run = _Tableau._home_run
    monkeypatch.setattr(_Tableau, "_home_run", lambda tab, *args: (
        runs.append(run(tab, *args)) or runs[-1]))
    optimal_alpha(random_crp(15, seed=0))
    assert sum(runs) == 140
    assert len(runs) * 20 <= sum(runs)


def test_repeated_equality_row_changes_nothing():
    # the copy is redundant: phase 1 leaves an artificial basic on a row
    # with nothing to pivot on, and solve_lp zeroes that row
    a_ub, b_ub = [[0.0, 1.0, 0.0]], [0.5]
    row = [1.0, 1.0, 1.0]
    once = solve_lp(LinearProgram(c=[1.0, 2.0, 0.5], a_ub=a_ub, b_ub=b_ub,
                                  a_eq=[row], b_eq=[1.0]))
    twice = solve_lp(LinearProgram(c=[1.0, 2.0, 0.5], a_ub=a_ub, b_ub=b_ub,
                                   a_eq=[row, row], b_eq=[1.0, 1.0]))
    assert once.status == twice.status == "optimal"
    assert once.x.tobytes() == twice.x.tobytes()
    assert once.x == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)


def test_nearly_redundant_row_leaves_the_problem():
    # the third equality row is the sum of the first two up to about
    # 1e-13: phase 1 ends with nothing above PIVOT_TOL to pivot on in it,
    # so it must drop out; left in, its residue turns into a phase-2
    # ratio candidate and the returned x is far from optimal
    from scipy.optimize import linprog
    a_eq = [[0.3252706467612809, -1.3886097110085291, -1.0248841884418924,
             1.361959178339191, 1.0966867114337753],
            [1.1585241863069546, -1.065595725691116, -0.8037341619873573,
             -1.1137768173402771, -0.364269510562863],
            [1.483794833067904, -2.4542054366999566, -1.828618350429958,
             0.24818236100100213, 0.7324172008707767]]
    lp = LinearProgram(
        c=[-1.037878087198072, 1.106116635165383, -1.0949397172957842,
           0.4266755453075035, -0.8917844877383474],
        a_ub=[[-41.52694080531683, -19.131355826522782, -0.9426731460007378,
               -6.209035421070916, 2.505032837100199],
              [82.46348183845575, -34.38033274710818, 4.8471806940836695,
               67.65554540752763, -66.87377686316017]],
        b_ub=[-22.004820066383804, 11.275422800919689], a_eq=a_eq,
        b_eq=[0.8116058823184996, -2.356024773489474, -1.5444188911699643],
        upper=np.full(5, 5.0))
    ref = linprog(-lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq,
                  b_eq=lp.b_eq, bounds=list(zip(lp.lower, lp.upper)),
                  method="highs")
    sol = solve_lp(lp)
    assert ref.status == 0 and sol.status == "optimal"
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)


def test_rejects_nan_or_wrong_sided_infinite_bounds():
    # max x s.t. x <= 2: unchecked, a NaN lower bound returns x = [nan], a
    # NaN cap reads as no cap (x = 2), and lower = +inf warns and reports
    # "infeasible"
    for bounds in ({"lower": [np.nan]}, {"upper": [np.nan]},
                   {"lower": [np.inf]}, {"upper": [-np.inf]},
                   {"lower": [1.0], "upper": [0.5]}):
        with pytest.raises(ValueError, match="lower <= upper"):
            solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[2.0],
                                   **bounds))
    free = solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[2.0],
                                  lower=[-np.inf], upper=[np.inf]))
    assert (free.status, free.x.tolist()) == ("optimal", [2.0])


def test_vecdot_sums_each_row_as_its_dot_product():
    # solve_lp shifts b with np.vecdot, and the LP pins above hold because
    # it sums each row in the order of row @ shift (a BLAS dot), which
    # a matrix-vector product need not do; a numpy or BLAS change that
    # breaks this identity fails here by name
    rng = np.random.default_rng(5)
    for width in range(1, 41):
        a = rng.normal(size=(30, width)) * 10.0 ** rng.integers(
            -8, 9, size=(30, width))
        shift = rng.normal(size=width)
        assert np.vecdot(a, shift).tobytes() == \
            np.array([row @ shift for row in a]).tobytes()
    empty = np.vecdot(np.zeros((0, 3)), np.ones(3))
    assert (empty.shape, empty.dtype) == ((0,), np.float64)


def test_matrix_layout_leaves_the_bits_unchanged():
    # a strided row's dot rounds differently from a contiguous one, so an
    # F-ordered a_ub with the values of a C-ordered one once moved x's last
    # bits (the alpha LP of random_crp(9, seed=2) over all drainable rows)
    from subset_lattice import every_drainable_subset
    for n, seed in [(n, s) for n in (8, 9, 10) for s in range(3)]:
        subsets = every_drainable_subset(random_crp(n, seed=seed))
        a_ub = np.zeros((len(subsets), n + 1))
        a_ub[:, -1] = 1.0
        for r, st in enumerate(subsets):
            a_ub[r, list(st.boundary)] = -st.log_ratio
        lower = np.r_[np.full(n, 1e-3), -np.inf]
        sols = [solve_lp(LinearProgram(
            c=np.eye(n + 1)[-1], a_ub=np.asarray(a_ub, order=order),
            b_ub=np.zeros(len(subsets)),
            a_eq=np.asarray([[1.0] * n + [0.0]], order=order), b_eq=[1.0],
            lower=lower)) for order in "CF"]
        assert [(s.status, s.x.tobytes(), s.iterations) for s in sols[1:]] \
            == [(s.status, s.x.tobytes(), s.iterations) for s in sols[:1]]
