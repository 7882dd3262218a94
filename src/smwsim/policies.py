"""Dispatch decision rules: scaled MaxWeight and the benchmark policies.

Every policy maps (queue vector, demand origin) to a supply node or a
drop.  Ties in score-based policies are broken toward the highest node
index.  Randomized policies draw from an injected generator so replays
are exact.
"""

from __future__ import annotations

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
    """Base: subclasses implement dispatch(queues, origin[, rng]), where
    queues is a list of ints or an integer array (same decisions), and
    dispatch_table(states, origin): the exact decisions of one origin over
    a state matrix (rows x n) as [(source per row or DROP, prob)], one
    atom if deterministic, so the chain oracle can expand mixtures.
    ``randomized`` says whether dispatch draws from rng."""

    name = "base"
    randomized = False

    def __init__(self, net: Network):
        self.net = net
        self._serve = [DispatchDecision(i, SERVED) for i in range(net.n_supply)]

    def dispatch(self, queues, origin, rng=None) -> DispatchDecision:
        raise NotImplementedError

    def rest_weights(self, n: int) -> np.ndarray:
        """Weights used for the default initial supply placement."""
        return uniform_alpha(n)


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


class SmwPolicy(Policy):
    """Dispatch from the compatible node with the largest scaled queue.

    Score is queues[i] / alpha[i]; drop only when every compatible queue
    is empty; ties go to the highest index.
    """

    name = "smw"

    def __init__(self, net: Network, alpha):
        super().__init__(net)
        self.alpha = check_alpha(alpha, net.n_supply)
        inv = (1.0 / self.alpha).tolist()
        # per origin: (node, 1 / alpha[node]) over its compatible nodes
        self._nbrs = [[(i, inv[i]) for i in net.supply_neighbors(j)]
                      for j in range(net.n_demand)]

    def dispatch(self, queues, origin, rng=None):
        best, src = 0.0, DROP
        for i, inv in self._nbrs[origin]:
            q = queues[i]
            if q > 0:
                score = q * inv
                if score >= best:   # >= prefers the higher index on ties
                    best, src = score, i
        return _NO_SUPPLY if src == DROP else self._serve[src]

    def dispatch_table(self, states, origin):   # pickup nbrs add a penalty
        return _argmax_table(states, *zip(*self._nbrs[origin]))

    def rest_weights(self, n):
        return self.alpha


def vanilla_policy(net: Network) -> SmwPolicy:
    """Unscaled MaxWeight: SMW with uniform scaling."""
    p = SmwPolicy(net, uniform_alpha(net.n_supply))
    p.name = "vanilla"
    return p


class PriorityPolicy(Policy):
    """Serve each demand node from a fixed ordered list of supply nodes."""

    name = "priority"

    def __init__(self, net: Network, priority_lists):
        super().__init__(net)
        self.lists = []
        for j in range(net.n_demand):
            lst = [int(i) for i in priority_lists[j]]
            if sorted(lst) != sorted(net.supply_neighbors(j)):
                raise ValueError(
                    f"priority list for demand node {j} is not a permutation "
                    f"of its compatible supply nodes")
            self.lists.append(lst)

    def dispatch(self, queues, origin, rng=None):
        for i in self.lists[origin]:
            if queues[i] > 0:
                return self._serve[i]
        return _NO_SUPPLY

    def dispatch_table(self, states, origin):   # score: -position in list
        lst = self.lists[origin]
        return _argmax_table(states, lst, 0.0, np.arange(len(lst)))


class FluidPolicy(Policy):
    """State-independent randomized dispatch from a fluid flow table.

    Supply node i is drawn with probability flow[i, origin] / demand rate
    of the origin; mass a column leaves short of its demand rate is an
    explicit decline.  If the sampled node is empty the demand is dropped
    -- no fallback, by definition of state-independent policies.
    """

    name = "fluid"
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
        return self._decide(queues, self._sources[origin][
            bisect_right(self._cdf[origin], rng.random())])

    def dispatch_table(self, states, origin):
        return [(np.where((src != DROP) & (states[:, src] > 0), src, DROP), p)
                for src, p in zip(self._sources[origin], self._probs[origin])]

    def _decide(self, queues, src):
        """Decision once the table has drawn src (a node or DROP)."""
        if src == DROP:
            return _DECLINED
        if queues[src] <= 0:
            return _NO_SUPPLY
        return self._serve[src]


class SmwPickupPolicy(SmwPolicy):
    """SMW score penalized by pickup time: queues[i]/alpha[i] - beta * D[i, origin]."""

    name = "smw-pickup"

    def __init__(self, net: Network, alpha, beta):
        if net.pickup_time is None:
            raise ValueError("pickup-aware policy requires a pickup time matrix")
        if not 0 <= beta < np.inf:     # nan fails too
            raise ValueError("beta must be nonnegative and finite")
        super().__init__(net, alpha)
        self.beta = float(beta)
        pickup = net.pickup_time.tolist()
        # per origin: (node, 1 / alpha[node], beta * D[node, origin])
        self._nbrs = [[(i, inv, self.beta * pickup[i][j]) for i, inv in nbrs]
                      for j, nbrs in enumerate(self._nbrs)]

    def dispatch(self, queues, origin, rng=None):
        best, src = None, DROP
        for i, inv, penalty in self._nbrs[origin]:
            q = queues[i]
            if q > 0:
                score = q * inv - penalty
                if best is None or score >= best:
                    best, src = score, i
        return _NO_SUPPLY if src == DROP else self._serve[src]


def policy_from_spec(net: Network, spec: dict) -> Policy:
    """Build a policy from its JSON payload: {"kind": ..., ...}."""
    kind = spec["kind"]
    if kind == "smw":
        return SmwPolicy(net, np.array(spec["alpha"], dtype=float))
    if kind == "vanilla_mw":
        return vanilla_policy(net)
    if kind == "static_priority":
        return PriorityPolicy(net, spec["priority_lists"])
    if kind == "fluid_random":
        return FluidPolicy(net, np.array(spec["flow_table"], dtype=float))
    if kind == "smw_pickup":
        return SmwPickupPolicy(net, np.array(spec["alpha"], dtype=float),
                               spec.get("beta", 0.0))
    raise ValueError(f"unknown policy kind: {kind!r}")
