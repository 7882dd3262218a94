"""Exact jump-chain oracle for small fleets.

Enumerates the full state space (compositions of K over the supply
nodes), builds the one-step transition matrix under a given policy, and
computes stationary drop probabilities by one sparse LU solve of the
recurrent class's pinned balance equations, accurate entrywise far below
machine epsilon.  Anchors every Monte Carlo estimate and exponent claim
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .network import Network
from .policies import DROP, Policy
from .sim import proportional_init

DEFAULT_STATE_CAP = 2_000_000
DISSECTION_LEAF = 64        # sets this small are not split further
REPIN_RATIO = 100.0         # mode / pinned mass above which the solve re-pins


class StateCapError(ValueError):
    """State space would exceed the configured cap."""


class DropUnderflowError(RuntimeError):
    """The class can drop, but its drop probability underflows a double."""


@dataclass
class StateSpace:
    states: np.ndarray          # count x n integer matrix, lexicographic order

    @classmethod
    def enumerate(cls, n: int, K: int, cap: int = DEFAULT_STATE_CAP):
        if K < 0:
            raise ValueError(f"fleet size K={K} must be nonnegative")
        count = comb(K + n - 1, n - 1)
        if count > cap:
            raise StateCapError(
                f"{count} states exceed the cap ({cap}) for n={n}, K={K}")
        # stars and bars; lexicographic bar positions keep the order
        bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
            range(K + n - 1), n - 1)), np.int64, count * (n - 1))
        bars = np.pad(bars.reshape(count, n - 1), ((0, 0), (1, 1)),
                      constant_values=(-1, K + n - 1))
        return cls(np.diff(bars, axis=1) - 1)


@dataclass
class ChainSolution:
    stationary: np.ndarray          # over the selected recurrent class states
    class_states: np.ndarray        # global state indices of that class
    drop_probability: float
    recurrent_class_count: int
    residual: float
    space: StateSpace
    lu_nnz: int                     # fill: entries SuperLU stores for L and U


def transitions(net: Network, atoms, space: StateSpace):
    """Atoms in (row, origin, atom) order: row, source (a node or DROP),
    rate phi[origin] * weight and next row (same if no move) per dest.

    ``atoms[j]`` is ``policy.dispatch_table(space.states, j)``, so a caller
    that already holds the tables builds none again.  Adding e_d - e_s
    keeps lexicographic order, so the move from s to d sends the k-th row
    with q_s > 0 to the k-th row with q_d > 0: next rows come from that
    shift, with no per-move search."""
    nstates = len(space.states)
    ori, src, w = zip(*[(j, src, w) for j, table in enumerate(atoms)
                        for src, w in table])
    # atoms in (row, origin, atom) order: a stable sort of the tables by row
    row = np.repeat(np.arange(nstates), len(w))
    source = np.stack(src, axis=1).ravel()
    pw = net.phi[np.tile(ori, nstates)] * np.tile(w, nstates)[:, None]
    move = (pw != 0.0) & (source[:, None] != DROP) \
        & (source[:, None] != np.arange(net.n_supply))
    at, dest = np.nonzero(move)
    occupied = space.states > 0
    pos = np.cumsum(occupied, axis=0) - 1       # index among rows with q_c > 0
    nz = np.nonzero(occupied.T)[1].reshape(net.n_supply, -1)
    tgt = np.repeat(row[:, None], net.n_supply, axis=1)
    tgt[move] = nz[dest, pos[row[at], source[at]]]
    return row, source, pw, tgt


def build_chain(net: Network, policy: Policy, K: int,
                cap: int = DEFAULT_STATE_CAP):
    """Row-stochastic transition matrix plus per-state drop mass.

    Each state row mixes over all (origin, destination) demand types;
    randomized policies expand into their exact decision distributions.
    Drop events are self-loops whose probability is recorded separately.
    """
    if policy.net is not net:
        raise ValueError("the policy was built on another net")
    space = StateSpace.enumerate(net.n_supply, K, cap)
    nstates = len(space.states)
    row, source, pw, tgt = transitions(net, [policy.dispatch_table(
        space.states, j) for j in range(net.n_demand)], space)
    live = pw != 0.0
    drop = source == DROP
    drop_mass = np.bincount(row[drop], pw[drop].sum(axis=1), minlength=nstates)
    P = sp.coo_matrix((pw[live], (row[np.nonzero(live)[0]], tgt[live])),
                      shape=(nstates, nstates))
    return P.tocsr(), drop_mass, space


def _recurrent_class(P: sp.csr_matrix, start: int):
    """Closed-class count, and the first closed class reachable from start."""
    ncomp, labels = connected_components(P, directed=True, connection="strong")
    coo = P.tocoo()
    is_open = np.zeros(ncomp, dtype=bool)
    is_open[labels[coo.row[labels[coo.row] != labels[coo.col]]]] = True
    reached = np.unique(labels[breadth_first_order(
        P, start, return_predecessors=False)])
    reached = reached[~is_open[reached]]
    if len(reached) == 0:
        raise RuntimeError("no recurrent class reachable from the initial state")
    return int(ncomp - is_open.sum()), np.flatnonzero(labels == reached[0])


def _dissection_order(states) -> np.ndarray:
    """Nested-dissection order of the rows of a state matrix.

    A transition changes each coordinate, and each pair sum q_a + q_b, by
    at most 1, so the states on a plane q_c = m or q_a + q_b = m separate
    the two sides of it, in every net and class.  The candidate planes are
    the columns of ``planes``: the coordinates, then the pair sums in
    ``triu_indices`` order.  Each split takes the plane of least separator
    size per state of its smaller side, and orders lower side, upper side,
    then separator.
    """
    a, b = np.triu_indices(states.shape[1], 1)
    planes = np.hstack([states, states[:, a] + states[:, b]])
    width = int(planes.max(initial=0)) + 1
    shift = np.arange(planes.shape[1]) * width  # row c of the table: plane c
    order, stack = [], [(np.arange(len(states)), False)]
    while stack:            # an explicit stack: a recursive closure is a cycle
        idx, is_separator = stack.pop()
        if not is_separator and len(idx) > DISSECTION_LEAF:
            on = np.bincount((planes[idx] + shift).ravel(),
                             minlength=shift.size * width).reshape(-1, width)
            below = np.cumsum(on, axis=1) - on
            side = np.minimum(below, len(idx) - below - on)
            ratio = np.where(side > 0, on / np.maximum(side, 1), np.inf)
            c, m = np.unravel_index(ratio.argmin(), ratio.shape)
            if ratio[c, m] < np.inf:
                col = planes[idx, c]
                stack += [(idx[col == m], True), (idx[col > m], False),
                          (idx[col < m], False)]
                continue
        order.append(idx)
    return np.concatenate(order)


def _stationary_on(P: sp.csr_matrix, members, pin: int, states):
    """Stationary law of P on an irreducible closed class, and the LU fill.

    Solves (I - P)^T pi = 0 with equation ``pin`` dropped and pi[pin] = 1.
    The reduced matrix is a column-diagonally-dominant nonsingular
    M-matrix, so LU needs no pivoting and only its diagonal updates
    subtract.  A pivot cancels when its state rarely reaches the states
    not yet eliminated, as when the chain drifts away from the pin.
    """
    rest = np.delete(np.arange(len(members)), pin)
    perm = rest[_dissection_order(states[members[rest]])]
    idx = members[perm]
    lu = splu((sp.eye(len(idx)) - P[idx][:, idx]).T, permc_spec="NATURAL",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    pi = np.ones(len(members))
    pi[perm] = lu.solve(P[members[pin]][:, idx].toarray().ravel())
    return pi / pi.sum(), lu.nnz


def stationary_drop_probability(net: Network, policy: Policy, K: int,
                                cap: int = DEFAULT_STATE_CAP) -> ChainSolution:
    """Exact long-run demand-drop probability under the policy.

    The stationary distribution is computed on the recurrent class
    reachable from the resting-point-proportional initial state; the
    number of recurrent classes is reported rather than averaged over.
    """
    P, drop_mass, space = build_chain(net, policy, K, cap)
    init = proportional_init(policy.rest_weights(), K)
    gap = np.abs(space.states - init).sum(axis=1)   # L1; 0 only at init
    nclosed, members = _recurrent_class(P, int(gap.argmin()))
    # pin the class state nearest the resting point, near the bulk of pi;
    # where the mode outweighs it (priority, say), solve again pinning that
    pin = int(gap[members].argmin())
    pi, lu_nnz = _stationary_on(P, members, pin, space.states)
    if not pi.max() <= REPIN_RATIO * pi[pin]:       # nan solves again too
        pi, lu_nnz = _stationary_on(P, members, int(pi.argmax()), space.states)
    residual = float(np.abs((pi @ P[members])[members] - pi).sum())
    if not np.all(pi >= 0):         # nan fails too
        raise RuntimeError(
            f"stationary solve on a class of {len(members)} states gave a "
            f"negative or non-finite entry (residual {residual:.3g})")
    drop = float(pi @ drop_mass[members])
    if drop < np.finfo(float).tiny and drop_mass[members].any():
        raise DropUnderflowError(f"p = {drop:.3g} at K={K} underflows")
    return ChainSolution(pi, members, drop, nclosed, residual, space, lu_nnz)


def exact_exponent_curve(net: Network, policy: Policy, K_list,
                         cap: int = DEFAULT_STATE_CAP):
    """Exact drop probability per fleet size; feeds the exponent fit."""
    return [(int(K), stationary_drop_probability(net, policy, K, cap)
             .drop_probability) for K in K_list]
