"""Dense linear-program solver (two-phase simplex, Bland's rule).

Problems here have few columns but up to a few thousand rows (the
optimal-alpha LP has n + 1 columns and one row per drainable subset plus
the sum-to-one row: 1,893 rows at n = 15, 4,667 at n = 16).  A dense
tableau with Bland's anti-cycling pivot rule is sufficient and easy to
audit.  Most pivots enter a column that is still a unit vector and so
update only the objective row.  Maximization convention: maximize c'x
subject to A x <= b, A_eq x = b_eq, and per-variable bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITER = 20000


@dataclass
class LinearProgram:
    c: np.ndarray                      # maximize c'x
    a_ub: np.ndarray | None = None     # a_ub x <= b_ub
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None     # a_eq x == b_eq
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None    # default 0
    upper: np.ndarray | None = None    # default +inf

    def __post_init__(self):
        self.c = np.atleast_1d(np.array(self.c, dtype=float))
        nvar = self.c.size
        if self.a_ub is not None:
            self.a_ub = np.atleast_2d(np.array(self.a_ub, dtype=float))
            self.b_ub = np.atleast_1d(np.array(self.b_ub, dtype=float))
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.array(self.a_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.array(self.b_eq, dtype=float))
        self.lower = (np.zeros(nvar) if self.lower is None
                      else np.array(self.lower, dtype=float))
        self.upper = (np.full(nvar, np.inf) if self.upper is None
                      else np.array(self.upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")


@dataclass
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _check_finite(*arrays):
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise ValueError("LP data contains NaN or Inf")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP by two-phase dense simplex.

    Standard form writes x = shift + E y with y >= 0: a variable with a
    finite lower bound is that bound plus one y column, a free variable
    is y+ - y-.  The rows are a_ub E y <= b_ub - a_ub shift, then
    a_eq E y = b_eq - a_eq shift, then one row E_j y <= upper_j - shift_j
    per finitely capped variable.  Each shifted right-hand side is one
    dot product per row: a matrix-vector product sums in another order,
    which moves the last bits of b and with them the returned x.

    Phase 2 runs on the phase-1 tableau: 1,894 x 3,803 (58 MB) at n = 15.
    """
    _check_finite(lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)
    nvar = lp.c.size
    a_ub = lp.a_ub if lp.a_ub is not None else np.zeros((0, nvar))
    b_ub = lp.b_ub if lp.b_ub is not None else np.zeros(0)
    a_eq = lp.a_eq if lp.a_eq is not None else np.zeros((0, nvar))
    b_eq = lp.b_eq if lp.b_eq is not None else np.zeros(0)

    free = np.isneginf(lp.lower)
    shift = np.where(free, 0.0, lp.lower)
    first = np.arange(nvar) + np.cumsum(free) - free   # y column of x_j
    nstd = nvar + int(free.sum())
    E = np.zeros((nvar, nstd))
    E[np.arange(nvar), first] = 1.0
    E[free, first[free] + 1] = -1.0
    capped = np.isfinite(lp.upper)

    # each column of E holds one +-1, so a @ E copies entries exactly
    A = np.vstack([a_ub @ E, a_eq @ E, E[capped]])
    b = np.concatenate([b_ub - [row @ shift for row in a_ub],
                        b_eq - [row @ shift for row in a_eq],
                        (lp.upper - shift)[capped]])
    nrow = A.shape[0]
    n_ub = a_ub.shape[0]
    slack_rows = np.r_[np.arange(n_ub), np.arange(n_ub + a_eq.shape[0], nrow)]
    ncol = nstd + slack_rows.size

    # phase 1: artificial variable per row, minimize their sum; the
    # tableau is [A | slacks | artificials | rhs] with rhs made nonnegative
    tab = np.zeros((nrow + 1, ncol + nrow + 1))
    tab[:nrow, :nstd] = A
    tab[slack_rows, nstd + np.arange(slack_rows.size)] = 1.0
    # home[j] = r: column j starts as the unit vector e_r (an unflipped
    # slack or an artificial) and stays it until row r is a pivot row
    home = np.r_[[-1] * nstd, np.where(b[slack_rows] < 0, -1, slack_rows),
                 np.arange(nrow)].tolist()
    flip = np.flatnonzero(b < 0)
    tab[flip, :ncol] *= -1.0
    b[flip] *= -1.0
    np.fill_diagonal(tab[:nrow, ncol:ncol + nrow], 1.0)
    tab[:nrow, -1] = b
    basis = list(range(ncol, ncol + nrow))
    used = [False] * nrow
    obj = tab[nrow]
    for r in range(nrow):   # reduced costs of min sum(artificials)
        obj[:] -= tab[r]
    obj[ncol:ncol + nrow] = 0.0

    iters, _ = _simplex_iterate(tab, basis, ncol + nrow, home, used, "phase 1")
    if obj[-1] < -FEAS_TOL:
        return LpSolution("infeasible", None, None, iters)

    # drive artificials out of the basis; zero redundant rows, so they are
    # never ratio candidates; phase 2 lets no artificial enter
    for r in range(nrow):
        if basis[r] >= ncol:
            piv = np.flatnonzero(np.abs(tab[r, :ncol]) > PIVOT_TOL)
            if piv.size == 0:
                tab[r] = 0.0
            else:
                _pivot(tab, r, piv[0], tab[:, piv[0]].copy())
                basis[r] = int(piv[0])
                used[r] = True

    # phase 2 objective (maximize): reduced costs of -c_std
    c_std = np.zeros(ncol)
    c_std[:nstd] = lp.c @ E
    obj[:] = 0.0
    obj[:ncol] = -c_std
    for r in range(nrow):
        if basis[r] < ncol and c_std[basis[r]] != 0.0:
            obj += c_std[basis[r]] * tab[r]

    iters2, unbounded = _simplex_iterate(tab, basis, ncol, home, used,
                                         "phase 2")
    if unbounded:
        return LpSolution("unbounded", None, None, iters + iters2)

    y = np.zeros(ncol + nrow)   # a zeroed row sets its artificial to 0
    y[basis] = tab[:nrow, -1]
    x = shift + E @ y[:nstd]
    return LpSolution("optimal", x, float(lp.c @ x), iters + iters2)


def _pivot(tab, row, col, colv):
    """Gauss-Jordan pivot on (row, col); colv is column col before it.

    Only rows with a nonzero in the pivot column and columns with a
    nonzero in the pivot row change; every other product is an exact
    zero, so skipping it leaves those entries as they are.
    """
    tab[row] /= colv[row]
    rows = (colv != 0.0).nonzero()[0]
    rows = rows[rows != row]
    cols = (tab[row] != 0.0).nonzero()[0]
    tab[rows[:, None], cols] -= np.outer(colv[rows], tab[row, cols])


def _simplex_iterate(tab, basis, ncols_usable, home, used, phase):
    """Run simplex pivots with Bland's rule; returns (iterations, unbounded).

    The objective row is the last row (minimization of its negated value,
    i.e. we pivot while some reduced cost is negative).  The LP is
    unbounded when the entering column has no positive entry.
    """
    nrow = tab.shape[0] - 1
    obj = tab[nrow]
    for it in range(MAX_ITER):
        # Bland: entering = lowest-index column with negative reduced cost
        enter = (obj[:ncols_usable] < -FEAS_TOL).nonzero()[0]
        if enter.size == 0:
            return it, False
        enter = int(enter[0])
        leave = home[enter]
        if leave >= 0 and not used[leave]:
            # still e_leave: it is the one ratio candidate; row / 1.0 == row
            cols = (tab[leave] != 0.0).nonzero()[0]
            obj[cols] -= obj[enter] * tab[leave, cols]
        else:
            # leaving: min ratio, ties by lowest basis index (Bland)
            colv = tab[:, enter].copy()
            cand = (colv[:nrow] > PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return it, True
            ratios = (tab[cand, -1] / colv[cand]).tolist()
            cand = cand.tolist()
            best, leave = ratios[0], cand[0]
            for r, ratio in zip(cand[1:], ratios[1:]):
                if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                                and basis[r] < basis[leave]):
                    best, leave = ratio, r
            _pivot(tab, leave, enter, colv)
        used[leave] = True
        basis[leave] = enter
    raise RuntimeError(f"simplex iteration cap exceeded in {phase}")


def solve_transportation(supply, demand, cost, support=None):
    """Minimum-cost feasible flow with fixed row sums and column sums.

    ``supply`` gives the required row sums, ``demand`` the column sums
    (the two totals must agree within 1e-9); flow variables exist only on
    ``support`` edges (default: all pairs).  Returns the flow matrix, or
    raises InfeasibleFlowError if the support cannot carry the marginals.
    """
    supply = np.atleast_1d(np.array(supply, dtype=float))
    demand = np.atleast_1d(np.array(demand, dtype=float))
    cost = np.atleast_2d(np.array(cost, dtype=float))
    n, m = supply.size, demand.size
    if abs(supply.sum() - demand.sum()) > 1e-9:
        raise ValueError("supply and demand totals differ")
    if support is None:
        support = [(i, j) for i in range(n) for j in range(m)]
    si, sj = np.array(sorted({(int(i), int(j)) for (i, j) in support}),
                      dtype=int).reshape(-1, 2).T
    if not np.all(np.isfinite(cost[si, sj])):
        raise ValueError("cost must be finite on support edges")

    a_eq = np.zeros((n + m, si.size))
    a_eq[si, np.arange(si.size)] = 1.0
    a_eq[n + sj, np.arange(si.size)] = 1.0
    sol = solve_lp(LinearProgram(c=-cost[si, sj], a_eq=a_eq,   # maximize -cost
                                 b_eq=np.concatenate([supply, demand])))
    if sol.status != "optimal":
        raise InfeasibleFlowError(
            f"transportation problem {sol.status} on given support")
    flow = np.zeros((n, m))
    flow[si, sj] = np.maximum(sol.x, 0.0)
    return flow


class InfeasibleFlowError(ValueError):
    """The support graph cannot carry the requested marginals."""
