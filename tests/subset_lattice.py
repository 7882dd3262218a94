"""The 2^m lattice of demand subsets, kept for the tests as a reference.

smwsim enumerates only the closed demand subsets (network.closed_subsets).
This module lists every nonempty strict subset, so the tests can check
that the closed ones lose nothing, and the neighborhood of any one subset
as a plain set.  It holds 2^m columns: use it for small nets only.
"""

import numpy as np

from smwsim.exponent import _stats
from smwsim.network import _drainable, masked_sum

LATTICE_CAP = 20  # most demand nodes, at 2^m columns


def neighborhood(net, demand_subset) -> frozenset:
    """Union of compatible supply nodes over a set of demand nodes."""
    sub = set(demand_subset)
    return frozenset(i for (i, j) in net.edges if j in sub)


def subset_table(net):
    """Hall slack (neighborhood inflow minus member demand), n x len
    neighborhood mask and drain flag (a member has demand toward a node
    outside the neighborhood) of each nonempty strict demand subset, at
    index code - 1, bit j marking demand j.  Code c | 1 << j, c < 2^j,
    adds j to c: sums run in node order."""
    m, n = net.n_demand, net.n_supply
    assert m <= LATTICE_CAP, f"{m} demand nodes: 2^{m} lattice columns"
    bits = np.zeros((2, m, -(-n // 64) * 64), dtype=bool)
    bits[:, :, :n] = net.adjacency, net.phi > 0
    words = np.packbits(bits, axis=2, bitorder="little").view("<u8")
    demand = np.zeros(1 << m)
    sets = np.zeros((2, 1 << m, words.shape[2]), dtype=words.dtype)
    for j, rate in enumerate(net.row_rates().tolist()):
        h = 1 << j
        np.add(demand[:h], rate, out=demand[h:2 * h])
        np.bitwise_or(sets[:, :h], words[:, j, None], out=sets[:, h:2 * h])
    nbrs, targets = sets[:, 1:-1]
    masks = np.unpackbits(nbrs.view(np.uint8), axis=1, count=n,
                          bitorder="little").T.view(bool)
    inflow = masked_sum(masks, net.col_rates())
    return inflow - demand[1:-1], masks, (targets & ~nbrs).any(axis=1)


def table_order(select, m: int):
    """Table indices set in ``select`` and their member masks (m x len), in
    ``itertools.combinations`` order."""
    # within one size, lexicographic is descending bit-reversed code order
    codes = np.flatnonzero(select) + 1
    members = ((codes >> np.arange(m)[:, None]) & 1).astype(bool)
    order = np.argsort((members.sum(axis=0) << m)
                       - (1 << np.arange(m)[::-1]) @ members)
    return codes[order] - 1, members.take(order, axis=1)   # rows contiguous


def every_drainable_subset(net):
    """SubsetStats of every drainable strict demand subset, closed or not,
    in ``itertools.combinations`` order."""
    _, nbrs, drains = subset_table(net)
    at, members = table_order(drains, net.n_demand)
    return _stats(*_drainable(net, members, nbrs.take(at, axis=1)))
