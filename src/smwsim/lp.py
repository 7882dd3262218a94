"""Small dense linear-program solver (two-phase simplex, Bland's rule).

Problems here are tiny (at most a few hundred variables), so a dense
tableau with Bland's anti-cycling pivot rule is both sufficient and easy
to audit.  Maximization convention: maximize c'x subject to A x <= b,
A_eq x = b_eq, and per-variable bounds.
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

    Variables are rewritten to nonnegative standard form: finite lower
    bounds are shifted out, free variables are split, finite upper bounds
    become extra inequality rows.
    """
    _check_finite(lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)
    nvar = lp.c.size

    a_ub = lp.a_ub if lp.a_ub is not None else np.zeros((0, nvar))
    b_ub = lp.b_ub if lp.b_ub is not None else np.zeros(0)
    a_eq = lp.a_eq if lp.a_eq is not None else np.zeros((0, nvar))
    b_eq = lp.b_eq if lp.b_eq is not None else np.zeros(0)

    # standard-form rewrite: x_j = lo_j + y_j (lo finite) or y+ - y- (free)
    cols = []          # per original var: (kind, std index/indices)
    shift = np.zeros(nvar)
    nstd = 0
    extra_ub = []      # (std index, cap) rows from finite upper bounds
    for j in range(nvar):
        lo, up = lp.lower[j], lp.upper[j]
        if np.isneginf(lo):
            cols.append(("free", (nstd, nstd + 1)))
            nstd += 2
            if np.isfinite(up):
                extra_ub.append((cols[-1][1], up))
        else:
            shift[j] = lo
            cols.append(("shift", nstd))
            nstd += 1
            if np.isfinite(up):
                extra_ub.append((nstd - 1, up - lo))

    def expand(row):
        out = np.zeros(nstd)
        for j, coef in enumerate(row):
            kind, idx = cols[j]
            if kind == "free":
                out[idx[0]] += coef
                out[idx[1]] -= coef
            else:
                out[idx] += coef
        return out

    A_rows, b_rows, eq_flags = [], [], []
    for r in range(a_ub.shape[0]):
        A_rows.append(expand(a_ub[r]))
        b_rows.append(b_ub[r] - a_ub[r] @ shift)
        eq_flags.append(False)
    for r in range(a_eq.shape[0]):
        A_rows.append(expand(a_eq[r]))
        b_rows.append(b_eq[r] - a_eq[r] @ shift)
        eq_flags.append(True)
    for spec, cap in extra_ub:
        row = np.zeros(nstd)
        if isinstance(spec, tuple):
            row[spec[0]], row[spec[1]] = 1.0, -1.0
        else:
            row[spec] = 1.0
        A_rows.append(row)
        b_rows.append(cap)
        eq_flags.append(False)

    A = np.array(A_rows) if A_rows else np.zeros((0, nstd))
    b = np.array(b_rows)
    nrow = A.shape[0]
    slack_rows = np.flatnonzero(~np.array(eq_flags, dtype=bool))
    ncol = nstd + slack_rows.size

    # phase 1: artificial variable per row, minimize their sum; the
    # tableau is [A | slacks | artificials | rhs] with rhs made nonnegative
    tab = np.zeros((nrow + 1, ncol + nrow + 1))
    tab[:nrow, :nstd] = A
    tab[slack_rows, nstd + np.arange(slack_rows.size)] = 1.0
    flip = np.flatnonzero(b < 0)
    tab[flip, :ncol] *= -1.0
    b[flip] *= -1.0
    np.fill_diagonal(tab[:nrow, ncol:ncol + nrow], 1.0)
    tab[:nrow, -1] = b
    basis = list(range(ncol, ncol + nrow))
    obj = tab[nrow]
    for r in range(nrow):   # reduced costs of min sum(artificials)
        obj[:] -= tab[r]
    obj[ncol:ncol + nrow] = 0.0

    iters, _ = _simplex_iterate(tab, basis, ncol + nrow, "phase 1")
    if tab[nrow, -1] < -FEAS_TOL:
        return LpSolution("infeasible", None, None, iters)

    # drive artificials out of the basis, drop redundant rows
    drop_rows = []
    for r in range(nrow):
        if basis[r] >= ncol:
            piv = np.flatnonzero(np.abs(tab[r, :ncol]) > PIVOT_TOL)
            if piv.size == 0:
                drop_rows.append(r)
            else:
                _pivot(tab, r, piv[0])
                basis[r] = int(piv[0])
    keep = [r for r in range(nrow) if r not in drop_rows]
    tab = tab[np.ix_(keep + [nrow], list(range(ncol)) + [-1])]
    tab[-1] = 0.0
    basis = [basis[r] for r in keep]
    nrow2 = len(keep)

    # phase 2 objective (maximize): reduced costs of -c_std
    c_std = np.zeros(ncol)
    for j in range(nvar):
        kind, idx = cols[j]
        if kind == "free":
            c_std[idx[0]] += lp.c[j]
            c_std[idx[1]] -= lp.c[j]
        else:
            c_std[idx] += lp.c[j]
    tab[nrow2, :ncol] = -c_std
    for r in range(nrow2):
        if c_std[basis[r]] != 0.0:
            tab[nrow2] += c_std[basis[r]] * tab[r]

    iters2, unbounded = _simplex_iterate(tab, basis, ncol, "phase 2")
    if unbounded:
        return LpSolution("unbounded", None, None, iters + iters2)

    y = np.zeros(ncol)
    for r in range(nrow2):
        y[basis[r]] = tab[r, -1]
    x = np.empty(nvar)
    for j in range(nvar):
        kind, idx = cols[j]
        if kind == "free":
            x[j] = y[idx[0]] - y[idx[1]]
        else:
            x[j] = shift[j] + y[idx]
    return LpSolution("optimal", x, float(lp.c @ x), iters + iters2)


def _pivot(tab, row, col):
    """Gauss-Jordan pivot on (row, col).

    Only rows with a nonzero in the pivot column and columns with a
    nonzero in the pivot row change; every other product is an exact
    zero, so skipping it leaves those entries as they are.
    """
    tab[row] /= tab[row, col]
    rows = tab[:, col].nonzero()[0]
    rows = rows[rows != row]
    cols = tab[row].nonzero()[0]
    tab[rows[:, None], cols] -= np.outer(tab[rows, col], tab[row, cols])


def _simplex_iterate(tab, basis, ncols_usable, phase):
    """Run simplex pivots with Bland's rule; returns (iterations, unbounded).

    The objective row is the last row (minimization of its negated value,
    i.e. we pivot while some reduced cost is negative).  The LP is
    unbounded when the entering column has no positive entry.
    """
    nrow = tab.shape[0] - 1
    for it in range(MAX_ITER):
        # Bland: entering = lowest-index column with negative reduced cost
        enter = (tab[nrow, :ncols_usable] < -FEAS_TOL).nonzero()[0]
        if enter.size == 0:
            return it, False
        enter = int(enter[0])
        # leaving: min ratio, ties by lowest basis index (Bland)
        cand = (tab[:nrow, enter] > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return it, True
        ratios = (tab[cand, -1] / tab[cand, enter]).tolist()
        cand = cand.tolist()
        best, leave = ratios[0], cand[0]
        for r, ratio in zip(cand[1:], ratios[1:]):
            if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL and basis[r] < basis[leave]):
                best, leave = ratio, r
        _pivot(tab, leave, enter)
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
    support = sorted({(int(i), int(j)) for (i, j) in support})
    if not np.all(np.isfinite([cost[i, j] for (i, j) in support])):
        raise ValueError("cost must be finite on support edges")

    nv = len(support)
    c = np.array([-cost[i, j] for (i, j) in support])   # maximize -cost
    a_eq = np.zeros((n + m, nv))
    for v, (i, j) in enumerate(support):
        a_eq[i, v] = 1.0
        a_eq[n + j, v] = 1.0
    b_eq = np.concatenate([supply, demand])
    sol = solve_lp(LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        raise InfeasibleFlowError(
            f"transportation problem {sol.status} on given support")
    flow = np.zeros((n, m))
    for v, (i, j) in enumerate(support):
        flow[i, j] = max(sol.x[v], 0.0)
    return flow


class InfeasibleFlowError(ValueError):
    """The support graph cannot carry the requested marginals."""
