"""Independent reference computations the benchmark checks smwsim against."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

LN10 = math.log(10.0)


def birth_death_log10_drop(phi, edges, K: int, start: int) -> float:
    """log10 stationary drop probability of vanilla MaxWeight on a
    two-node network with K units, solved in log space.

    The state is the number x of units at node 0.  Each demand origin is
    served from the compatible node with the longest queue (ties to the
    higher index), so the jump chain is a birth-death chain on x.  The
    stationary law on the closed class reachable from ``start`` follows
    from detailed balance, log pi(x+1) = log pi(x) + log up(x) -
    log down(x+1), so no probability underflows however deep the tail.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (2, 2):
        raise ValueError("birth-death reference needs a two-node network")
    nbrs = [[i for i in (0, 1) if (i, j) in edges] for j in (0, 1)]
    up, down, drop = np.zeros(K + 1), np.zeros(K + 1), np.zeros(K + 1)
    for x in range(K + 1):
        q = (x, K - x)
        for j in (0, 1):
            src = max((i for i in nbrs[j] if q[i] > 0),
                      key=lambda i: (q[i], i), default=None)
            for k in (0, 1):
                if src is None:
                    drop[x] += phi[j, k]
                elif src == 1 and k == 0:
                    up[x] += phi[j, k]
                elif src == 0 and k == 1:
                    down[x] += phi[j, k]
    lo = hi = start
    while lo > 0 and down[lo] > 0:
        lo -= 1
    while hi < K and up[hi] > 0:
        hi += 1
    if np.any(up[lo:hi] <= 0) or np.any(down[lo + 1:hi + 1] <= 0):
        raise ValueError("reachable class is not a single birth-death class")
    log_pi = np.concatenate(
        [[0.0], np.cumsum(np.log(up[lo:hi]) - np.log(down[lo + 1:hi + 1]))])
    log_pi -= logsumexp(log_pi)
    d = drop[lo:hi + 1]
    if not np.any(d > 0):
        return -math.inf
    return float(logsumexp(log_pi[d > 0] + np.log(d[d > 0]))) / LN10


def highs_gamma(net, subsets, eps_floor: float) -> float:
    """Optimum of the exponent-optimal-alpha LP solved by scipy's HiGHS.

    Same LP as ``optimal_alpha``: maximize t subject to
    t <= log(lambda/mu) * (alpha mass on the boundary) for every drainable
    subset, alpha >= eps_floor, sum(alpha) = 1.
    """
    n = net.n_supply
    a_ub = np.zeros((len(subsets), n + 1))
    a_ub[:, -1] = 1.0
    for r, st in enumerate(subsets):
        a_ub[r, list(st.boundary)] = -st.log_ratio
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.ones((1, n + 1))
    a_eq[0, -1] = 0.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(subsets)), A_eq=a_eq,
                  b_eq=[1.0], bounds=[(eps_floor, None)] * n + [(None, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP failed: {res.message}")
    return -float(res.fun)


def littles_law_error(rep, window_minutes: float) -> float:
    """Relative gap between mean in transit / throughput and mean trip time.

    Throughput is the observed one, trips served per minute of the
    measured window, so only window-edge effects remain and not the
    Poisson noise of the arrival count."""
    throughput = rep.served / window_minutes
    return rep.mean_in_transit / throughput / rep.mean_trip_minutes - 1.0


def digest(obj) -> str:
    """Short stable hash of a JSON-serializable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
