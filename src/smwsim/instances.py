"""Instance generators: the two-node textbook network, symmetric rings,
and random pooled instances (the synthetic-city stand-in)."""

from __future__ import annotations

import numpy as np

from .network import (
    Network,
    NetworkError,
    build_network,
    symmetrize_demand,
    validate_network,
)
# not called here, but the benchmark tracer patches drainable_subsets here
from .exponent import drainable_subsets  # noqa: F401

MIN_PICKUP_MINUTES = 3.0
EDGE_PROB = 0.6       # chance of each edge in a random_crp draw
MAX_TRIES = 2000      # random_crp draws before giving up


def pickup_from_travel(travel: np.ndarray) -> np.ndarray:
    """Inflated travel times used as pickup times: max(1.5 D, 3 minutes)."""
    return np.maximum(1.5 * travel, MIN_PICKUP_MINUTES)


def _random_times(n: int, rng, lo=2.0, hi=20.0):
    t = rng.uniform(lo, hi, size=(n, n))
    t = 0.5 * (t + t.T)
    np.fill_diagonal(t, rng.uniform(1.0, 4.0, size=n))
    return t


def example1(with_times: bool = False) -> Network:
    """Two-node network where unscaled MaxWeight is provably suboptimal."""
    phi = [[3 / 8, 1 / 8], [1 / 4, 1 / 4]]
    edges = [(0, 0), (0, 1), (1, 1)]
    travel = pickup = None
    if with_times:
        travel = np.array([[4.0, 10.0], [10.0, 4.0]])
        pickup = pickup_from_travel(travel)
    return build_network(2, 2, edges, phi, travel, pickup)


def example1_crp_violated() -> Network:
    """Same graph with the demand flipped so pooling fails (deficit 1/8)."""
    phi = [[1 / 8, 3 / 8], [1 / 4, 1 / 4]]
    return build_network(2, 2, [(0, 0), (0, 1), (1, 1)], phi)


def symmetric_ring(n: int, with_times: bool = False) -> Network:
    """n-zone ring: each demand node served by itself and its two
    neighbors, uniform demand.  Pooled by construction for n >= 3."""
    if n < 3:
        raise ValueError("ring needs at least 3 zones")
    edges = []
    for j in range(n):
        for d in (-1, 0, 1):
            edges.append(((j + d) % n, j))
    phi = np.full((n, n), 1.0 / (n * n))
    travel = pickup = None
    if with_times:
        # ring distance scaled to minutes
        travel = np.array([[2.0 + 4.0 * min((i - j) % n, (j - i) % n)
                            for j in range(n)] for i in range(n)], dtype=float)
        pickup = pickup_from_travel(travel)
    return build_network(n, n, edges, phi, travel, pickup)


def random_crp(n: int, seed: int = 0, eta: float | None = None,
               with_times: bool = False) -> Network:
    """Rejection-sample a square instance until pooling holds.

    Demand entries are exponential draws (optionally symmetrized with
    weight eta before normalization); edges are random with each demand
    node guaranteed a neighbor.  Rejects until the pooling condition
    holds and the instance is nontrivial (some demand j has rate toward a
    destination that does not serve j), which for n >= 2 is exactly when
    some subset is drainable: {j} is.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        phi = rng.exponential(1.0, size=(n, n))
        if eta is not None:
            phi = symmetrize_demand(phi, eta)
        edges = {(i, j) for i in range(n) for j in range(n)
                 if rng.random() < EDGE_PROB}
        for j in range(n):
            if not any(e[1] == j for e in edges):
                edges.add((int(rng.integers(n)), j))
        # full flexibility is trivially uninteresting
        if len(edges) == n * n:
            continue
        travel = pickup = None
        if with_times:
            travel = _random_times(n, rng)
            pickup = pickup_from_travel(travel)
        try:
            net = build_network(n, n, edges, phi, travel, pickup)
        except NetworkError:
            continue
        report = validate_network(net)
        if report.crp_holds and report.nontrivial:
            return net
    raise RuntimeError(
        f"no pooled instance found in {MAX_TRIES} tries (n={n}, seed={seed})")
