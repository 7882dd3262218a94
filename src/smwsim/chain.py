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


class StateCapError(ValueError):
    """State space would exceed the configured cap."""


@dataclass
class StateSpace:
    states: np.ndarray          # count x n integer matrix, lexicographic order
    K: int

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
        return cls(np.diff(bars, axis=1) - 1, K)

    def rank(self, states) -> np.ndarray:
        """Row of each state (m x n), by the combinatorial number system.

        Coordinate i adds C(R + m, m) - C(R - q_i + m, m) rows, those that
        agree before i and are smaller at i, where m = n - 1 - i and R is
        what is left of K before i.  No term exceeds the state count."""
        states = np.asarray(states, dtype=np.int64)
        n = states.shape[1]
        table = np.ones((n, self.K + 1), dtype=np.int64)
        for m in range(1, n):               # table[m, R] = C(R + m, m)
            table[m] = np.cumsum(table[m - 1])
        after = (self.K - np.cumsum(states, axis=1))[:, :-1]
        m = np.arange(n - 1, 0, -1)
        return (table[m, after + states[:, :-1]] - table[m, after]).sum(axis=1)


@dataclass
class ChainSolution:
    stationary: np.ndarray          # over the selected recurrent class states
    class_states: np.ndarray        # global state indices of that class
    drop_probability: float
    recurrent_class_count: int
    residual: float
    space: StateSpace


def build_chain(net: Network, policy: Policy, K: int,
                cap: int = DEFAULT_STATE_CAP):
    """Row-stochastic transition matrix plus per-state drop mass.

    Each state row mixes over all (origin, destination) demand types;
    randomized policies expand into their exact decision distributions.
    Drop events are self-loops whose probability is recorded separately.
    The policy sees each (state, origin) once, queues as a list of ints.
    """
    space = StateSpace.enumerate(net.n_supply, K, cap)
    nstates = len(space.states)
    origins = [j for j in range(net.n_demand) if np.any(net.phi[j] != 0.0)]
    atoms = [(r, j, dec.source, w)
             for r, q in enumerate(space.states.tolist()) for j in origins
             for dec, w in policy.dispatch_distribution(q, j)]
    row, origin, source, weight = (np.array(a) for a in zip(*atoms))
    pw = net.phi[origin] * weight[:, None]      # atom x destination
    live = pw != 0.0
    move = live & (source[:, None] != DROP) \
        & (source[:, None] != np.arange(net.n_supply))
    at, dest = np.nonzero(move)
    nxt = space.states[row[at]]
    nxt[np.arange(len(at)), source[at]] -= 1
    nxt[np.arange(len(at)), dest] += 1
    tgt = np.repeat(row[:, None], net.n_supply, axis=1)
    tgt[move] = space.rank(nxt)
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


def _stationary_on(sub: sp.csr_matrix, pin: int):
    """Stationary law of an irreducible stochastic matrix, and its residual.

    Solves (I - P)^T pi = 0 with equation ``pin`` dropped and pi[pin] = 1.
    The reduced matrix is a column-diagonally-dominant nonsingular
    M-matrix, so LU needs no pivoting and only its diagonal updates
    subtract.  They cancel when elimination runs against the drift, so
    pin a heavy state.
    """
    size = sub.shape[0]
    A = (sp.eye(size) - sub).T.tocsc()
    keep = np.arange(size) != pin
    lu = splu(A[keep][:, keep], permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    pi = np.ones(size)
    pi[keep] = lu.solve(-A[keep][:, [pin]].toarray().ravel())
    pi /= pi.sum()
    residual = float(np.abs(pi @ sub - pi).sum())
    if not np.all(pi >= 0):         # nan fails too
        raise RuntimeError(
            f"stationary solve on a class of {size} states gave a negative "
            f"or non-finite entry (residual {residual:.3g})")
    return pi, residual


def stationary_drop_probability(net: Network, policy: Policy, K: int,
                                cap: int = DEFAULT_STATE_CAP) -> ChainSolution:
    """Exact long-run demand-drop probability under the policy.

    The stationary distribution is computed on the recurrent class
    reachable from the resting-point-proportional initial state; the
    number of recurrent classes is reported rather than averaged over.
    """
    P, drop_mass, space = build_chain(net, policy, K, cap)
    init = proportional_init(policy.rest_weights(net.n_supply), K)
    nclosed, members = _recurrent_class(P, int(space.rank([init])[0]))
    # pin the class state nearest the resting point, near the bulk of pi
    pin = int(np.abs(space.states[members] - init).sum(axis=1).argmin())
    pi, residual = _stationary_on(P[members][:, members], pin)
    drop = float(pi @ drop_mass[members])
    return ChainSolution(pi, members, drop, nclosed, residual, space)


def exact_exponent_curve(net: Network, policy: Policy, K_list,
                         cap: int = DEFAULT_STATE_CAP):
    """Exact drop probability per fleet size; feeds the exponent fit."""
    return [(int(K), stationary_drop_probability(net, policy, K, cap)
             .drop_probability) for K in K_list]
