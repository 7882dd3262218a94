"""A plain dense two-phase simplex under Bland's rule, kept for the tests
as a reference for smwsim.lp.solve_lp.

It stores the whole (rows + 1) x (columns + artificials + 1) tableau and
pivots on it as the textbook does, skipping only products that are an
exact zero.  solve_lp stores only the columns that stopped being unit
vectors and fixes runs of home pivots at once; both must take the same
pivots and return the same bits.  The right-hand side is shifted with
``np.vecdot`` as solve_lp does, and the LP's matrices are C-ordered
copies (LinearProgram makes them).  Use it for small LPs only: the
tableau is dense.
"""

import numpy as np

from smwsim.lp import FEAS_TOL, MAX_ITER, PIVOT_TOL


def solve_dense(lp):
    """(status, x or None, iterations) of maximizing lp.c'x."""
    nvar = lp.c.size
    a_ub = lp.a_ub if lp.a_ub is not None else np.zeros((0, nvar))
    b_ub = lp.b_ub if lp.b_ub is not None else np.zeros(0)
    a_eq = lp.a_eq if lp.a_eq is not None else np.zeros((0, nvar))
    b_eq = lp.b_eq if lp.b_eq is not None else np.zeros(0)

    # x = shift + E y, y >= 0; a free x_j is y+ - y-
    free = np.isneginf(lp.lower)
    shift = np.where(free, 0.0, lp.lower)
    first = np.arange(nvar) + np.cumsum(free) - free
    nstd = nvar + int(free.sum())
    E = np.zeros((nvar, nstd))
    E[np.arange(nvar), first] = 1.0
    E[free, first[free] + 1] = -1.0
    capped = np.isfinite(lp.upper)
    A = np.vstack([a_ub @ E, a_eq @ E, E[capped]])
    b = np.concatenate([b_ub - np.vecdot(a_ub, shift),
                        b_eq - np.vecdot(a_eq, shift),
                        (lp.upper - shift)[capped]])
    nrow, n_ub = A.shape[0], a_ub.shape[0]
    slack_rows = np.r_[np.arange(n_ub), np.arange(n_ub + a_eq.shape[0], nrow)]
    ncol = nstd + slack_rows.size

    # phase 1: [A | slacks | artificials | rhs], rhs made >= 0; minimize
    # the sum of the artificials
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
    for r in range(nrow):
        obj[:] -= tab[r]
    obj[ncol:ncol + nrow] = 0.0

    iters, _ = _iterate(tab, basis, ncol + nrow)
    if obj[-1] < -FEAS_TOL:
        return "infeasible", None, iters

    # drive artificials out; zero a row with nothing to pivot on
    for r in range(nrow):
        if basis[r] >= ncol:
            piv = np.flatnonzero(np.abs(tab[r, :ncol]) > PIVOT_TOL)
            if piv.size == 0:
                tab[r] = 0.0
            else:
                _pivot(tab, r, tab[:, piv[0]].copy())
                basis[r] = int(piv[0])

    # phase 2 (maximize): reduced costs of -c_std
    c_std = np.zeros(ncol)
    c_std[:nstd] = lp.c @ E
    obj[:] = 0.0
    obj[:ncol] = -c_std
    for r in range(nrow):
        if basis[r] < ncol and c_std[basis[r]] != 0.0:
            obj += c_std[basis[r]] * tab[r]
    iters2, unbounded = _iterate(tab, basis, ncol)
    if unbounded:
        return "unbounded", None, iters + iters2
    y = np.zeros(ncol + nrow)
    y[basis] = tab[:nrow, -1]
    return "optimal", shift + E @ y[:nstd], iters + iters2


def _pivot(tab, row, colv):
    """Gauss-Jordan pivot on ``row``; colv is the entering column before
    it.  Only rows with a nonzero in colv and columns with a nonzero in
    the pivot row change; every other product is an exact zero."""
    tab[row] /= colv[row]
    rows = (colv != 0.0).nonzero()[0]
    rows = rows[rows != row]
    cols = (tab[row] != 0.0).nonzero()[0]
    tab[rows[:, None], cols] -= np.outer(colv[rows], tab[row, cols])


def _iterate(tab, basis, usable):
    """Bland pivots while one of the first ``usable`` reduced costs is
    negative; returns (iterations, unbounded)."""
    nrow = tab.shape[0] - 1
    obj = tab[nrow]
    for it in range(MAX_ITER):
        enter = (obj[:usable] < -FEAS_TOL).nonzero()[0]
        if enter.size == 0:
            return it, False
        enter = int(enter[0])
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
        _pivot(tab, leave, colv)
        basis[leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")
