"""Network instance: bipartite compatibility graph plus normalized demand matrix.

Supply nodes are indexed 0..n-1 and demand nodes 0..m-1.  The demand matrix
``phi`` has one row per demand (origin) node and one column per destination
(supply) node; after normalization its entries sum to one.  Optional travel
and pickup time matrices (minutes) enable the timed simulator.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

NORMALIZATION_TOL = 1e-12
DEFAULT_SUBSET_CAP = 20


class NetworkError(ValueError):
    """Raised for structurally invalid network instances."""


class SubsetCapError(NetworkError):
    """Raised when exact subset enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class Network:
    n_supply: int
    n_demand: int
    edges: frozenset  # of (supply index, demand index) pairs
    phi: np.ndarray  # m x n, normalized to total mass 1
    travel_time: np.ndarray | None = None  # n x n minutes
    pickup_time: np.ndarray | None = None  # n x n minutes

    def __post_init__(self):
        self.phi.setflags(write=False)
        for t in (self.travel_time, self.pickup_time):
            if t is not None:
                t.setflags(write=False)

    # --- structural helpers -------------------------------------------------

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
    warning) and indices are compacted.  ``phi`` is normalized to total
    mass one; an isolated demand node or out-of-range edge raises
    NetworkError.
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


def neighborhood(net: Network, demand_subset) -> frozenset:
    """Union of compatible supply nodes over a set of demand nodes."""
    sub = set(demand_subset)
    return frozenset(i for (i, j) in net.edges if j in sub)


def adjacency(net: Network) -> np.ndarray:
    """m x n boolean mask: entry (j, i) is set when supply i serves demand j."""
    adj = np.zeros((net.n_demand, net.n_supply), dtype=bool)
    for (i, j) in net.edges:
        adj[j, i] = True
    return adj


def subset_table(net: Network, cap: int = DEFAULT_SUBSET_CAP):
    """Every nonempty strict demand subset as one column of two boolean masks.

    Columns follow ``itertools.combinations`` order (size, then
    lexicographic); this is the alpha LP's row order.  Returns the
    m x (2^m - 2) member mask and the n x (2^m - 2) neighborhood mask,
    the OR of the members' adjacency masks.  Guarded by a hard cap on m.
    """
    m = net.n_demand
    if m > cap:
        raise SubsetCapError(
            f"{m} demand nodes exceed the subset enumeration cap ({cap})")
    # bit m-1-j of a code marks demand node j, so within one size the
    # lexicographic order of member tuples is descending code order
    codes = np.arange(1, (1 << m) - 1)
    members = np.stack([((codes >> (m - 1 - j)) & 1).astype(bool)
                        for j in range(m)])
    members = members[:, np.lexsort((-codes, members.sum(axis=0)))]
    adj = adjacency(net)
    nbrs = np.zeros((net.n_supply, codes.size), dtype=bool)
    for j in range(m):
        nbrs[adj[j]] |= members[j]
    return members, nbrs


def mask_indices(mask) -> tuple:
    """Set positions of one boolean mask, ascending, as Python ints."""
    return tuple(np.flatnonzero(mask).tolist())


def masked_sum(terms, size: int) -> np.ndarray:
    """Sum of ``mask * value`` over (mask, value) terms, added in order.

    Values are finite and nonnegative, so an unset entry adds an exact
    0.0 and each entry equals the sequential Python sum over its set
    terms bit for bit.
    """
    out = np.zeros(size)
    for mask, value in terms:
        out += mask * value
    return out


def validate_network(net: Network, cap: int = DEFAULT_SUBSET_CAP,
                     original_mass: float = 1.0) -> ValidationReport:
    """Check the two model assumptions and compute structural constants.

    The Hall gap is the minimum, over nonempty strict demand subsets J, of
    the supply inflow to the neighborhood of J minus the demand rate of J.
    Pooling holds iff the gap is strictly positive.  When some subset's
    inequality is strictly reversed, its deficit is an unavoidable drop
    fraction, reported as ``epsilon_floor_drop``.
    """
    row = net.row_rates()
    col = net.col_rates()
    nontrivial = bool(np.any((net.phi > 0) & ~adjacency(net)))

    members, nbrs = subset_table(net, cap)
    size = members.shape[1]
    slack = (masked_sum(zip(nbrs, col), size)
             - masked_sum(zip(members, row), size))
    # with one demand node no strict subset exists: vacuously pooled
    hall_gap = float(slack.min()) if size else float("inf")
    violating = [(mask_indices(members[:, s]), float(slack[s]))
                 for s in np.flatnonzero(slack <= 0)]
    return ValidationReport(
        normalized=abs(original_mass - 1.0) > NORMALIZATION_TOL,
        original_mass=float(original_mass),
        nontrivial=nontrivial,
        crp_holds=hall_gap > 0,
        hall_gap=hall_gap,
        lambda_min=float(col.min()),
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
