"""Linear-program solver (two-phase simplex, Bland's rule).

Problems here have few columns and up to about 16k rows: the optimal-alpha
LP has n + 1 columns, the sum-to-one row and one row per closed drainable
subset (59-141 at n = 12-15, 1,227-5,150 at n = 30-40, 15,965 at n = 50),
and pivots 1.03-1.13 times per row there.  The tableau is column-major,
and stores a slack or artificial column only once it stops being a unit
vector.  Most pivots enter such a column and change only the objective
row; Bland's rule, kept for audit, fixes runs of them ahead, and a run is
one accumulate.  Maximize c'x s.t. A x <= b, A_eq x = b_eq, bounds.
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
        # C order: a strided row's dot rounds otherwise, so x's bits would
        # depend on the layout of the matrices, not only on their values
        if self.a_ub is not None:
            self.a_ub = np.atleast_2d(np.array(self.a_ub, float, order="C"))
            self.b_ub = np.atleast_1d(np.array(self.b_ub, dtype=float))
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.array(self.a_eq, float, order="C"))
            self.b_eq = np.atleast_1d(np.array(self.b_eq, dtype=float))
        self.lower = (np.zeros(nvar) if self.lower is None
                      else np.array(self.lower, dtype=float))
        self.upper = (np.full(nvar, np.inf) if self.upper is None
                      else np.array(self.upper, dtype=float))
        lo, up = self.lower, self.upper   # a NaN bound fails every test
        if not np.all((lo <= up) & (lo < np.inf) & (up > -np.inf)):
            raise ValueError("need lower <= upper, lower < inf, upper > -inf")


@dataclass
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    iterations: int


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP by two-phase simplex.

    Standard form writes x = shift + E y with y >= 0: a variable with a
    finite lower bound is that bound plus one y column, a free variable
    is y+ - y-.  The rows are a_ub E y <= b_ub - a_ub shift, then
    a_eq E y = b_eq - a_eq shift, then one row E_j y <= upper_j - shift_j
    per finitely capped variable.  The shifts are ``np.vecdot``'s per-row
    BLAS dots; a matrix-vector product sums in another order, which moves
    the last bits of b and with them the returned x.

    Phase 2 runs on the phase-1 tableau, which at n = 15 ends up storing
    41 of its 301 columns.
    """
    if not all(a is None or np.isfinite(a).all()
               for a in (lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)):
        raise ValueError("LP data contains NaN or Inf")
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
    b = np.concatenate([b_ub - np.vecdot(a_ub, shift),
                        b_eq - np.vecdot(a_eq, shift),
                        (lp.upper - shift)[capped]])
    nrow = A.shape[0]
    n_ub = a_ub.shape[0]
    slack_rows = np.r_[np.arange(n_ub), np.arange(n_ub + a_eq.shape[0], nrow)]
    ncol = nstd + slack_rows.size

    tab = _Tableau(A, b, nstd, slack_rows)
    iters, _ = tab.iterate(ncol + nrow, "phase 1")
    if tab.obj[-1] < -FEAS_TOL:
        return LpSolution("infeasible", None, None, iters)

    # drive artificials out of the basis; zero redundant rows, so they are
    # never ratio candidates; phase 2 lets no artificial enter
    for r in range(nrow):
        if tab.basis[r] >= ncol:
            tab.drive_out(r)

    # phase 2 objective (maximize): reduced costs of -c_std; a row with a
    # structural basic has been a pivot row, so all of it is stored
    c_std = lp.c @ E
    obj = tab.obj = np.zeros(tab.obj.size)
    obj[:nstd] = -c_std
    cols = tab.cols[:tab.width]
    for r, j in enumerate(tab.basis):
        if j < nstd and c_std[j] != 0.0:
            obj[cols] += c_std[j] * tab.block[:tab.width, r]

    iters2, unbounded = tab.iterate(ncol, "phase 2")
    if unbounded:
        return LpSolution("unbounded", None, None, iters + iters2)

    y = np.zeros(ncol + nrow)   # a zeroed row sets its artificial to 0
    y[tab.basis] = tab.block[nstd]
    x = shift + E @ y[:nstd]
    return LpSolution("optimal", x, float(lp.c @ x), iters + iters2)


class _Tableau:
    """Phase-1 tableau [A | slacks | artificials | rhs], rhs made >= 0,
    column-major, without the columns that are still unit vectors.

    Slack or artificial column j starts as sign[j] * e_r, r = row[j], and
    stays so until row r is a pivot row; just before that, row r appends
    its unit columns to [A | rhs | appended], whose column p is row p of
    ``block``.  ``cols[p]`` is the tableau column at block position p,
    ``pos`` the inverse (-1 for a unit column).  The objective row ``obj``
    is stored in full, and ``neg`` marks its negative reduced costs.
    """

    def __init__(self, A, b, nstd, slack_rows):
        nrow = A.shape[0]
        self.nstd, self.ncol = nstd, nstd + slack_rows.size
        ntot = self.ncol + nrow
        flip = np.where(b < 0, -1.0, 1.0)
        self.sign = [1.0] * nstd + flip[slack_rows].tolist() + [1.0] * nrow
        self.row = [-1] * nstd + slack_rows.tolist() + list(range(nrow))
        self.units = [[self.ncol + r] for r in range(nrow)]
        for j, r in enumerate(slack_rows.tolist(), nstd):
            self.units[r].insert(0, j)
        self.cols = np.arange(ntot + 1)   # read only below self.width
        self.cols[nstd] = ntot
        self.pos = list(range(nstd)) + [-1] * (ntot - nstd)
        self.width = nstd + 1
        self.block = np.zeros((2 * self.width, nrow))
        self.block[:nstd] = A.T * flip
        self.block[nstd] = b * flip
        self.basis = list(range(self.ncol, ntot))
        # reduced costs of min sum(artificials): 0 - row 0 - row 1 - ...
        self.obj = np.zeros(ntot + 1)
        self.obj[self.cols[:nstd + 1]] = np.subtract.accumulate(np.hstack(
            [np.zeros((nstd + 1, 1)), self.block[:nstd + 1]]), axis=1)[:, -1]
        self.obj[nstd:self.ncol] = -flip[slack_rows]

    def iterate(self, usable, phase):
        """Bland pivots while one of the first ``usable`` reduced costs is
        negative; returns (iterations, unbounded).  The LP is unbounded
        when the entering column has no positive entry."""
        self.neg = self.obj < -FEAS_TOL
        neg, it = self.neg[:usable], 0
        while it < MAX_ITER:
            # Bland: entering = lowest-index column with negative reduced cost
            enter = int(neg.argmax())
            if not neg[enter]:
                return it, False
            if self.pos[enter] < 0 and self.sign[enter] > 0:
                it += self._home_run(enter, usable)
                continue
            colv = self._column(enter)
            cand = (colv > PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return it, True
            leave = _ratio_test(
                cand, self.block[self.nstd, cand] / colv[cand], self.basis)
            self._pivot(leave, colv, self.obj[enter])
            self.basis[leave] = enter
            it += 1
        raise RuntimeError(f"simplex iteration cap exceeded in {phase}")

    def _home_run(self, enter, usable):
        """Bland's run of home pivots from ``enter``; returns its length.

        The run takes the next negative reduced costs while each is a home
        column: in phase 1 a +e_r slack at -1, whose pivot lifts row r's
        unit columns to 0 and 1 (in phase 2 they stay at 0), so no pivot
        moves a later one's multiplier or turns a unit column negative.
        One accumulate gives the stored reduced costs after each pivot
        with a lone pivot's bits (a zero entry adds +-0); the run stops
        where one below the next candidate turns negative.
        """
        obj, w, js = self.obj, self.width, []
        for j in (self.neg[enter:usable].nonzero()[0] + enter).tolist():
            if self.pos[j] >= 0 or self.sign[j] < 0:
                break
            js.append(j)
        rows, cols, at = [self.row[j] for j in js], self.cols[:w], np.array(js)
        steps = np.vstack([obj[cols], obj[at, None] * self.block[:w, rows].T])
        np.subtract.accumulate(steps, axis=0, out=steps)
        turned = ((steps[1:-1] < -FEAS_TOL)
                  & (cols < at[1:, None])).any(axis=1)
        k = int(np.append(turned, True).argmax()) + 1
        del rows[k:], js[k:]
        obj[cols] = steps[k]
        self.neg[cols] = steps[k] < -FEAS_TOL
        for r, j, m in zip(rows, js, obj[js].tolist()):
            for u in self.units[r]:
                obj[u] -= m * self.sign[u]
                self.neg[u] = obj[u] < -FEAS_TOL
            self.basis[r] = j
        return len(js)

    def drive_out(self, r):
        """Pivot row r's artificial out on the lowest-index column with an
        entry above PIVOT_TOL, or zero the row when there is none."""
        w = self.width
        piv = self.cols[:w][np.abs(self.block[:w, r]) > PIVOT_TOL].tolist()
        piv = [j for j in piv if j < self.ncol] + [
            j for j in self.units[r] if j < self.ncol and self.pos[j] < 0]
        if piv:
            j = self.basis[r] = min(piv)
            self._pivot(r, self._column(j), self.obj[j])
        else:
            self._store(r)
            self.block[:self.width, r] = 0.0

    def _column(self, j):
        if self.pos[j] >= 0:
            return self.block[self.pos[j]].copy()
        colv = np.zeros(self.block.shape[1])
        colv[self.row[j]] = self.sign[j]
        return colv

    def _store(self, r):
        """Append row r's unit columns once, doubling the block as needed."""
        for j in self.units[r] if self.pos[self.units[r][-1]] < 0 else ():
            w = self.width
            if w == len(self.block):   # at most one row per column
                self.block = np.vstack([self.block, np.zeros_like(
                    self.block[:self.cols.size - w])])
            self.block[w, r] = self.sign[j]
            self.cols[w], self.pos[j], self.width = j, w, w + 1

    def _pivot(self, r, colv, m):
        """Gauss-Jordan pivot on row r; colv and m are the entering column
        and its reduced cost before it.  The whole stored block changes as
        one product; with colv[r] set to 0, an entry with a zero factor
        stays as it was, up to the sign of a zero.  The objective changes
        only on the stored nonzeros of the pivot row.
        """
        self._store(r)
        prow = self.block[:self.width, r]
        prow /= colv[r]
        colv[r] = 0.0
        self.block[:self.width] -= np.outer(prow, colv)
        nz = prow.nonzero()[0]
        j = self.cols[nz]
        self.obj[j] = reduced = self.obj[j] - m * prow[nz]
        self.neg[j] = reduced < -FEAS_TOL


def _ratio_test(cand, ratios, basis):
    """Leaving row: min ratio, ties by lowest basis index (Bland).

    When no other ratio is near the least one by Bland's scan's
    comparisons, the scan would keep that one, so it is taken directly.
    """
    k = ratios.argmin()
    best = ratios[k]   # so ratios - best >= 0 is abs(ratio - best)
    if np.count_nonzero((ratios - PIVOT_TOL <= best)
                        | (ratios - best <= PIVOT_TOL)) == 1:
        return int(cand[k])
    return _bland_scan(cand.tolist(), ratios.tolist(), basis)


def _bland_scan(cand, ratios, basis):
    best, leave = ratios[0], cand[0]
    for r, ratio in zip(cand[1:], ratios[1:]):
        if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                        and basis[r] < basis[leave]):
            best, leave = ratio, r
    return leave


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
