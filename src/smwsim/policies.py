"""Dispatch decision rules: scaled MaxWeight and the benchmark policies.

Every policy maps (queue vector, demand origin) to a supply node or a
drop.  The deterministic ones serve from the nonempty compatible node of
largest q * scale - penalty, ties to the last node listed: SMW, its pickup
penalty, and static priority (scale 0, penalty = position in the list).
Randomized policies draw from an injected generator so replays are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .exponent import check_alpha, uniform_alpha
from .network import Network

DROP = -1

SERVED = "served"
NO_COMPATIBLE_SUPPLY = "no_compatible_supply"
POLICY_DECLINED = "policy_declined"


@dataclass(frozen=True)
class DispatchDecision:
    source: int        # supply index, or DROP
    reason: str

    def __post_init__(self):
        assert (self.source == DROP) == (self.reason != SERVED)


_NO_SUPPLY = DispatchDecision(DROP, NO_COMPATIBLE_SUPPLY)
_DECLINED = DispatchDecision(DROP, POLICY_DECLINED)


class Policy:
    """Base: dispatch(queues, origin[, rng]) on a list of ints or an int
    array (same decisions), and dispatch_table(states, origin): one origin's
    exact decisions over a state matrix as [(source per row or DROP, prob)],
    one atom if deterministic.  Both score the rows (node, scale, penalty)
    that subclasses list in ``_nbrs[origin]``; FluidPolicy draws instead.
    ``randomized`` says whether dispatch draws from rng."""

    randomized = False

    def __init__(self, net: Network):
        self.net = net
        self._serve = [DispatchDecision(i, SERVED) for i in range(net.n_supply)]

    def dispatch(self, queues, origin, rng=None) -> DispatchDecision:
        best, src = -math.inf, DROP    # penalties are finite
        for i, scale, penalty in self._nbrs[origin]:
            q = queues[i]
            if q > 0:
                score = q * scale - penalty
                if score >= best:   # >= prefers the last node listed on ties
                    best, src = score, i
        return _NO_SUPPLY if src == DROP else self._serve[src]

    def dispatch_table(self, states, origin):
        return _argmax_table(states, *zip(*self._nbrs[origin]))

    def rest_weights(self) -> np.ndarray:
        """Weights used for the default initial supply placement."""
        return uniform_alpha(self.net.n_supply)


def _argmax_table(states, nodes, inv, penalty=0.0):
    """One atom: per row, the node of largest q * inv - penalty among the
    nodes with q > 0, ties to the last one listed (as the scalar loops'
    >= breaks them, on the same float products), DROP where all q are 0.
    A leading candidate axis on inv and penalty gives a source row for each."""
    nodes = np.array(nodes)
    q = states[:, nodes]
    score = np.where(q > 0, q * np.array(inv, ndmin=1)[..., None, :]
                     - np.array(penalty, ndmin=1)[..., None, :], -np.inf)
    last = nodes[len(nodes) - 1 - score[..., ::-1].argmax(axis=-1)]
    return [(np.where((q > 0).any(axis=1), last, DROP), 1.0)]


def smw_rows(net: Network, alpha, beta=None) -> list:
    """SMW's rows per origin j: (nodes, 1 / alpha[nodes], beta * D[nodes, j])
    over j's compatible nodes, D = 0 without beta.  A leading candidate axis
    on alpha and beta gives one set per candidate, as _argmax_table reads."""
    if beta is None:
        beta, times = 0.0, np.zeros((net.n_supply, net.n_demand))
    elif (times := net.pickup_time) is None:
        raise ValueError("pickup-aware policy requires a pickup time matrix")
    nbrs = [np.array(net.supply_neighbors(j)) for j in range(net.n_demand)]
    return [(nodes, 1.0 / alpha[..., nodes],
             np.multiply.outer(beta, times[nodes, j]))
            for j, nodes in enumerate(nbrs)]


class SmwPolicy(Policy):
    """Dispatch from the compatible node with the largest scaled queue.

    Score is queues[i] / alpha[i], less beta * D[i, origin] when a pickup
    penalty beta is given; drop only when every compatible queue is empty;
    ties go to the highest index.
    """

    def __init__(self, net: Network, alpha, beta=None):
        super().__init__(net)
        self.alpha = check_alpha(alpha, net.n_supply)
        if beta is not None and not 0 <= beta < np.inf:     # nan fails too
            raise ValueError("beta must be nonnegative and finite")
        self.beta = None if beta is None else float(beta)
        self._nbrs = [list(zip(*(a.tolist() for a in rows)))
                      for rows in smw_rows(net, self.alpha, self.beta)]

    def rest_weights(self):
        return self.alpha


def vanilla_policy(net: Network) -> SmwPolicy:
    """Unscaled MaxWeight: SMW with uniform scaling."""
    return SmwPolicy(net, uniform_alpha(net.n_supply))


class PriorityPolicy(Policy):
    """Serve each demand node from a fixed ordered list of supply nodes."""

    def __init__(self, net: Network, priority_lists):
        super().__init__(net)
        if len(priority_lists) != net.n_demand:
            raise ValueError("need one priority list per demand node")
        # per origin: (node, 0, rank), so the first nonempty node scores best
        self._nbrs = []
        for j in range(net.n_demand):
            lst = list(priority_lists[j])     # int() would truncate 1.7
            ints = all(isinstance(i, (int, np.integer)) and type(i) is not bool
                       for i in lst)
            if not ints or sorted(lst) != sorted(net.supply_neighbors(j)):
                raise ValueError(
                    f"priority list for demand node {j} is not a permutation "
                    f"of its compatible supply nodes")
            self._nbrs.append([(int(i), 0.0, float(r)) for r, i in enumerate(lst)])


class FluidPolicy(Policy):
    """State-independent randomized dispatch from a fluid flow table.

    Supply node i is drawn with probability flow[i, origin] / demand rate
    of the origin; mass a column leaves short of its demand rate is an
    explicit decline.  If the sampled node is empty the demand is dropped
    -- no fallback, by definition of state-independent policies.
    """

    randomized = True

    def __init__(self, net: Network, flow_table):
        super().__init__(net)
        flow = np.array(flow_table, dtype=float)
        if flow.shape != (net.n_supply, net.n_demand):
            raise ValueError("flow table must be n_supply x n_demand")
        if not np.all(flow >= 0):      # nan fails too
            raise ValueError("flow table entries must be nonnegative")
        mu = net.row_rates()
        if np.any(flow.sum(axis=0) - mu > 1e-9):
            raise ValueError("flow column sums must not exceed the demand rates")
        if np.any(flow[~net.adjacency.T] != 0):
            raise ValueError("flow table has flow on pairs that are not edges")
        self.flow = flow
        # per-origin sampling tables: sources plus an explicit decline atom,
        # and the CDF that Generator.choice(sources, p=probs) searches
        self._sources, self._probs, self._cdf = [], [], []
        for j in range(net.n_demand):
            probs = flow[:, j] / mu[j]
            src = [i for i in range(net.n_supply) if probs[i] > 0]
            p = [probs[i] for i in src]
            resid = 1.0 - sum(p)
            if resid > 1e-12:
                src.append(DROP)
                p.append(resid)
            p = np.array(p) / np.sum(p)
            cdf = p.cumsum()
            cdf /= cdf[-1]
            self._sources.append(src)
            self._probs.append(p.tolist())
            self._cdf.append(cdf.tolist())

    def dispatch(self, queues, origin, rng=None):
        if rng is None:
            raise ValueError("fluid dispatch needs a random generator")
        # the draw and the search of Generator.choice(sources, p=probs)
        src = self._sources[origin][
            bisect_right(self._cdf[origin], rng.random())]
        if src == DROP:
            return _DECLINED
        if queues[src] <= 0:
            return _NO_SUPPLY
        return self._serve[src]

    def dispatch_table(self, states, origin):
        return [(np.where((src != DROP) & (states[:, src] > 0), src, DROP), p)
                for src, p in zip(self._sources[origin], self._probs[origin])]


def _nested(value, depth, types) -> bool:
    """Whether value is a JSON number of one of types inside depth lists."""
    if depth == 0:
        return type(value) in types     # bool and str are not numbers
    return isinstance(value, list) and all(_nested(v, depth - 1, types)
                                           for v in value)


def policy_from_spec(net: Network, spec: dict) -> Policy:
    """Build a policy from its JSON payload: {"kind": ..., ...}.  A field
    of the wrong JSON type raises ValueError: float() would read "0.5" and
    true, and int() each character of "10"."""
    if not isinstance(spec, dict):
        raise ValueError("policy spec must be a JSON object")

    def field(key, depth, what, types=(int, float)):
        value = spec.get(key, 0.0)      # beta defaults to 0
        if not _nested(value, depth, types):
            raise ValueError(f"policy spec field {key!r} must be {what}")
        return value

    kind = spec["kind"]
    if kind == "smw":
        return SmwPolicy(net, field("alpha", 1, "a list of numbers"))
    if kind == "vanilla_mw":
        return vanilla_policy(net)
    if kind == "static_priority":
        return PriorityPolicy(net, field("priority_lists", 2,
                                         "lists of integers", (int,)))
    if kind == "fluid_random":
        return FluidPolicy(net, field("flow_table", 2, "lists of numbers"))
    if kind == "smw_pickup":
        return SmwPolicy(net, field("alpha", 1, "a list of numbers"),
                         field("beta", 0, "a number"))
    raise ValueError(f"unknown policy kind: {kind!r}")
