"""Network instance: bipartite compatibility graph plus normalized demand matrix.

Supply nodes are indexed 0..n-1 and demand nodes 0..m-1.  The demand matrix
``phi`` has one row per demand (origin) node and one column per destination
(supply) node; after normalization its entries sum to one.  Optional travel
and pickup time matrices (minutes) enable the timed simulator.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-12
CLOSED_CAP = 16384  # most closed subsets: LP pivots < 1.15 a row (tested)
SUM_BLOCK = 1 << 15  # most entries per float block of masked_sum
PAIR_BLOCK = 1024  # columns per (pairs x columns) block of _pair_sums


class NetworkError(ValueError):
    """Raised for structurally invalid network instances."""


class SubsetCapError(NetworkError):
    """Raised when exact subset enumeration would exceed a cap."""


@dataclass(frozen=True)
class Network:
    n_supply: int
    n_demand: int
    edges: frozenset  # of (supply index, demand index) pairs
    phi: np.ndarray  # m x n, normalized to total mass 1
    travel_time: np.ndarray | None = None  # n x n minutes
    pickup_time: np.ndarray | None = None  # n x n minutes

    def __post_init__(self):
        _read_only(*(a for a in (self.phi, self.travel_time, self.pickup_time)
                     if a is not None))

    # --- structural helpers -------------------------------------------------

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only m x n mask, (j, i) set when supply i serves demand j."""
        adj = np.zeros((self.n_demand, self.n_supply), dtype=bool)
        for (i, j) in self.edges:
            adj[j, i] = True
        return _read_only(adj)[0]

    @cached_property
    def hall(self) -> tuple:
        """Read-only Hall slack of phi, member and neighborhood masks of the
        subsets where the least slack of all strict ones lies, kept from first
        use: the strict closed ones in closed_subsets order, then each {j}^c
        with N({j}^c) = N(all), by j.  A closure keeps J's inflow bits and
        sums no less demand; a strict J with N(J) = N(all) lies in a {j}^c."""
        members, nbrs = closed_subsets(self)
        adj = self.adjacency
        outer = adj.sum(axis=0)[:, None] > adj.T   # N({j}^c), n x m
        full = np.flatnonzero((outer == nbrs[:, -1:]).all(axis=0))
        members = np.hstack([members[:, :-1], np.arange(len(adj))[:, None] != full])
        nbrs = np.hstack([nbrs[:, :-1], outer[:, full]])
        return _read_only(masked_sum(nbrs, self.col_rates())
                          - masked_sum(members, self.row_rates()), members, nbrs)

    @cached_property
    def drainable(self) -> tuple:
        """Read-only columns of exponent.drainable_subsets and their log
        ratios (-inf at lambda 0, unpooled nets only), kept from first use."""
        cols = _drainable(self, *self.hall[1:])
        logs = [math.log(r) if r else -math.inf for r in np.divide(*cols[2:])]
        return _read_only(*cols, np.array(logs))

    def supply_neighbors(self, demand_node: int) -> tuple:
        """Compatible supply nodes of one demand node, ascending."""
        return tuple(sorted(i for (i, j) in self.edges if j == demand_node))

    def row_rates(self) -> np.ndarray:
        """Total arrival rate per demand (origin) node."""
        return self.phi.sum(axis=1)

    def col_rates(self) -> np.ndarray:
        """Total supply inflow rate per supply (destination) node."""
        return self.phi.sum(axis=0)

    def to_json(self) -> dict:
        d = {
            "n_supply": self.n_supply,
            "n_demand": self.n_demand,
            "edges": sorted([list(e) for e in self.edges]),
            "phi": self.phi.tolist(),
        }
        if self.travel_time is not None:
            d["travel_time"] = self.travel_time.tolist()
        if self.pickup_time is not None:
            d["pickup_time"] = self.pickup_time.tolist()
        return d


@dataclass
class ValidationReport:
    normalized: bool
    original_mass: float
    nontrivial: bool
    crp_holds: bool
    hall_gap: float
    lambda_min: float
    violating_subsets: list  # of (demand subset tuple, slack)
    epsilon_floor_drop: float

    def to_json(self) -> dict:
        d = asdict(self)
        d["violating_subsets"] = [
            {"subset": list(j), "slack": s} for (j, s) in self.violating_subsets
        ]
        return d


def build_network(n_supply, n_demand, edges, phi, travel_time=None,
                  pickup_time=None) -> Network:
    """Construct a validated, normalized Network.

    Demand nodes whose row of ``phi`` is all zero are dropped (with a
    warning) and indices are compacted; with time matrices they raise
    NetworkError instead.  ``phi`` is normalized to total mass one; an
    isolated demand node, an out-of-range edge or time matrices on more
    demand than supply nodes raise NetworkError.
    """
    n, m = int(n_supply), int(n_demand)
    if n <= 0 or m <= 0:
        raise NetworkError("network must have at least one supply and one demand node")
    phi = np.array(phi, dtype=float)
    if phi.shape != (m, n):
        raise NetworkError(f"phi must be {m}x{n}, got {phi.shape}")
    if np.any(phi < 0) or not np.all(np.isfinite(phi)):
        raise NetworkError("phi entries must be finite and nonnegative")

    edges = {(int(i), int(j)) for (i, j) in edges}
    for (i, j) in edges:
        if not (0 <= i < n and 0 <= j < m):
            raise NetworkError(f"edge ({i},{j}) out of range")

    # drop zero-rate demand nodes, compact indices
    keep = [j for j in range(m) if phi[j].sum() > 0.0]
    if len(keep) < m:
        if travel_time is not None or pickup_time is not None:
            raise NetworkError(   # compacting would shift the zone map
                f"demand node(s) {sorted(set(range(m)) - set(keep))} have "
                "zero arrival rate, but timed mode maps demand j to zone j")
        warnings.warn(
            f"dropping {m - len(keep)} demand node(s) with zero arrival rate",
            stacklevel=2,
        )
        remap = {old: new for new, old in enumerate(keep)}
        phi = phi[keep]
        edges = {(i, remap[j]) for (i, j) in edges if j in remap}
        m = len(keep)
        if m == 0:
            raise NetworkError("all demand nodes have zero arrival rate")

    for j in range(m):
        if not any(e[1] == j for e in edges):
            raise NetworkError(f"demand node {j} has no compatible supply node")
    for i in range(n):
        # an edgeless supply node is an absorbing sink in the closed
        # network: units that land there never serve anyone again
        if not any(e[0] == i for e in edges):
            raise NetworkError(f"supply node {i} has no compatible demand node")

    mass = phi.sum()
    phi = phi / mass
    if m > n and (travel_time is not None or pickup_time is not None):
        raise NetworkError("timed mode maps demand nodes onto supply zones; "
                           "needs n_demand <= n_supply")

    def _times(t, name):
        if t is None:
            return None
        t = np.array(t, dtype=float)
        if t.shape != (n, n):
            raise NetworkError(f"{name} must be {n}x{n}")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise NetworkError(f"{name} entries must be finite and nonnegative")
        return t

    return Network(n, m, frozenset(edges), phi,
                   _times(travel_time, "travel_time"),
                   _times(pickup_time, "pickup_time"))


def load_network(path) -> Network:
    """Load a Network from its JSON file schema."""
    with open(path) as fh:
        d = json.load(fh)
    return build_network(
        d["n_supply"], d["n_demand"], d["edges"], d["phi"],
        d.get("travel_time"), d.get("pickup_time"),
    )


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(net.to_json(), fh, indent=2)
        fh.write("\n")


def _nontrivial_pairs(net: Network):
    """Index arrays (j, k), row-major, of the pairs where demand j has
    rate toward a destination k that does not serve j.  With two or more
    demand nodes a net has a drainable subset exactly when such a pair
    exists: {j} drains through it, and a draining J drains through some j
    in J and k outside N(J), which contains N(j)."""
    return np.nonzero((net.phi > 0) & ~net.adjacency)


def _drainable(net: Network, members, nbrs):
    """Columns (members, boundary, lambda, mu) of the drainable subsets
    (mu > 0) among those given by their member and neighborhood masks."""
    # a node k outside the neighborhood never serves a member j, so only
    # the nontrivial pairs add to mu; pairs without rate add only zeros
    lam = _pair_sums(net.phi, np.nonzero(net.phi), ~members, nbrs)
    mu = _pair_sums(net.phi, _nontrivial_pairs(net), members, ~nbrs)
    return [a.compress(mu > 0, axis=-1) for a in (members, nbrs, lam, mu)]


def _pair_sums(phi, pairs, rows, cols):
    """Per column, the sum of phi[j, k] over the (j, k) pairs, in order,
    where rows[j] and cols[k] are both set: ``masked_sum`` on the pair
    masks, formed PAIR_BLOCK columns at a time to bound the memory."""
    j, k = pairs
    out = np.empty(rows.shape[1])
    for at in range(0, out.size, PAIR_BLOCK):
        out[at:at + PAIR_BLOCK] = masked_sum(
            rows[j, at:at + PAIR_BLOCK] & cols[k, at:at + PAIR_BLOCK],
            phi[j, k])
    return out


def closed_subsets(net: Network):
    """Member and neighborhood masks (m x c, n x c), by size and then
    lexicographic, of the c nonempty closed demand subsets J = {j : N(j)
    within N(J)}, the last one J = all: the distinct unions of the N(j), as
    bitsets, joined one N(j) at a time.  Every step's family lies in the
    final one, so more than CLOSED_CAP of them raise SubsetCapError."""
    n, adj = net.n_supply, net.adjacency
    seen = {0}
    for s in {int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(adj, axis=1, bitorder="little")}:
        seen |= {u | s for u in seen}
        if len(seen) > CLOSED_CAP + 1:
            raise SubsetCapError(f"{len(seen) - 1} closed demand subsets "
                                 f"exceed the enumeration cap ({CLOSED_CAP})")
    seen.remove(0)
    raw = b"".join(u.to_bytes(-(-n // 8), "little") for u in seen)
    nbrs = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(seen), -1),
                         axis=1, count=n, bitorder="little").T.view(bool)
    members = ~(adj @ ~nbrs)
    order = np.lexsort([*~members[::-1], members.sum(axis=0)])
    return members.take(order, axis=1), nbrs.take(order, axis=1)


def hall_subsets(net: Network, f):
    """Hall slack of rates f (sums in node order) on the columns of
    Network.hall, and their member and neighborhood masks."""
    _, members, nbrs = net.hall
    return (masked_sum(nbrs, f.sum(axis=0))
            - masked_sum(members, f.sum(axis=1)), members, nbrs)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def mask_indices(masks) -> list:
    """Set rows of each column of a 2-D boolean mask, ascending, as tuples
    of Python ints, from one ``nonzero`` pass; equal columns share one
    tuple (drainable subsets of one net share few neighborhoods)."""
    flat = np.nonzero(masks.T)[1].tolist()
    ends = np.cumsum(masks.sum(axis=0)).tolist()
    seen = {}
    return [seen.setdefault(t, t) for t in
            (tuple(flat[a:b]) for a, b in zip([0] + ends, ends))]


def masked_sum(masks, values) -> np.ndarray:
    """Per column of ``masks`` (one row per value), the sum of values[t]
    over its set rows t: the values go into a zeroed C-ordered block whose
    ``sum(axis=0)`` adds the rows one at a time, so each nonnegative sum
    (x + 0.0 == x) is sequential, bit for bit.  A spare zero column keeps
    numpy from summing a lone column pairwise."""
    out = np.empty(masks.shape[1])
    step = SUM_BLOCK // (len(values) + 1) + 1
    for at in range(0, out.size, step):
        block = masks[:, at:at + step]
        terms = np.zeros((len(values), block.shape[1] + 1))
        np.copyto(terms[:, :-1], values[:, None], where=block)
        out[at:at + step] = terms.sum(axis=0)[:-1]
    return out


def validate_network(net: Network,
                     original_mass: float = 1.0) -> ValidationReport:
    """Check the two model assumptions and compute structural constants.

    The Hall gap is the minimum, over nonempty strict demand subsets J, of
    the supply inflow to the neighborhood of J minus the demand rate of J.
    Pooling holds iff the gap is strictly positive.  When some subset's
    inequality is strictly reversed, its deficit is an unavoidable drop
    fraction, reported as ``epsilon_floor_drop``.  The violating
    hall_subsets columns are listed, closed subsets first, in their order.
    """
    slack, members, _ = net.hall
    # with one demand node no strict subset exists: vacuously pooled
    hall_gap = float(slack.min(initial=np.inf))
    bad = slack <= 0
    violating = list(zip(mask_indices(members.compress(bad, axis=1)),
                         slack[bad].tolist()))
    return ValidationReport(
        normalized=abs(original_mass - 1.0) > NORMALIZATION_TOL,
        original_mass=float(original_mass),
        nontrivial=bool(_nontrivial_pairs(net)[0].size),
        crp_holds=hall_gap > 0,
        hall_gap=hall_gap,
        lambda_min=float(net.col_rates().min()),
        violating_subsets=violating,
        epsilon_floor_drop=max(0.0, -hall_gap),
    )


def symmetrize_demand(phi_raw, eta: float) -> np.ndarray:
    """Blend a square demand matrix with its transpose-symmetrized version.

    Returns eta * phi + (1 - eta) * (phi + phi^T) / 2.  The caller
    normalizes the result; eta=1 is the identity, eta=0 is fully symmetric.
    """
    phi_raw = np.array(phi_raw, dtype=float)
    if phi_raw.ndim != 2 or phi_raw.shape[0] != phi_raw.shape[1]:
        raise NetworkError("symmetrization requires a square matrix")
    if not 0.0 <= eta <= 1.0:
        raise NetworkError("eta must lie in [0, 1]")
    return eta * phi_raw + (1.0 - eta) * 0.5 * (phi_raw + phi_raw.T)
