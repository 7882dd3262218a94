import itertools
import math
import tracemalloc

import numpy as np
import pytest

from smwsim import (
    build_network,
    symmetrize_demand,
    validate_network,
)
from smwsim.network import NetworkError, SubsetCapError
from smwsim.instances import (example1, example1_crp_violated, random_crp,
                              symmetric_ring)
from subset_lattice import neighborhood


def validate_loop(net):
    """The per-subset loop that validate_network replaced, kept as its
    reference: (nontrivial, hall gap, violating subsets, drop floor)."""
    m, n = net.n_demand, net.n_supply
    row, col = net.row_rates(), net.col_rates()
    nontrivial = any(net.phi[j, k] > 0 and k not in net.supply_neighbors(j)
                     for j in range(m) for k in range(n))
    gap, violating, floor = math.inf, [], 0.0
    for size in range(1, m):
        for J in itertools.combinations(range(m), size):
            slack = (sum(col[i] for i in neighborhood(net, J))
                     - sum(row[j] for j in J))
            gap = min(gap, slack)
            if slack <= 0:
                violating.append((J, float(slack)))
            floor = max(floor, float(-slack))
    return nontrivial, gap, violating, floor


def hall_listing(net, items, subset):
    """The items whose demand subset J = subset(item) is closed (it holds
    every j with N(j) inside N(J)), in their order, then those whose J is
    a complement {j}^c with N(J) = N(all), by j: the columns that
    network.hall_subsets lists."""
    m = net.n_demand
    served = [neighborhood(net, [j]) for j in range(m)]
    closed, outer = [], {}
    for item in items:
        J = subset(item)
        nbrs = neighborhood(net, J)
        if all(j in J for j in range(m) if served[j] <= nbrs):
            closed.append(item)
        elif len(J) == m - 1 and nbrs == neighborhood(net, range(m)):
            outer[min(set(range(m)) - set(J))] = item
    return closed + [outer[j] for j in sorted(outer)]


def unpooled_random(n, seed):
    """Random square network with no rejection step, so pooling may fail."""
    rng = np.random.default_rng(seed)
    edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4}
    edges |= {(i, i) for i in range(n)}
    return build_network(n, n, edges, rng.exponential(1.0, size=(n, n)))


def test_validate_network_matches_reference_loop():
    nets = [random_crp(n, seed=s) for n in range(3, 10) for s in range(5)]
    nets += [unpooled_random(n, s) for n in range(3, 8) for s in range(5)]
    nets += [example1(), example1_crp_violated(),
             build_network(3, 3, [(i, j) for i in range(3) for j in range(3)],
                           np.arange(1.0, 10.0).reshape(3, 3)),
             build_network(2, 1, [(0, 0), (1, 0)], [[0.5, 0.5]])]
    assert any(not validate_network(net).crp_holds for net in nets)
    dropped = 0
    for net in nets:
        rep = validate_network(net)
        nontrivial, gap, violating, floor = validate_loop(net)
        # the least slack lies on the listed subsets: the closed violators
        # and the complements that reach N(all)
        listed = hall_listing(net, violating, lambda v: v[0])
        dropped += len(violating) - len(listed)
        violating = listed
        assert rep.nontrivial == nontrivial
        assert rep.crp_holds == (gap > 0)
        # the reference sums each neighborhood in frozenset order, the
        # validator in ascending node order: they may differ by ulps
        assert rep.hall_gap == pytest.approx(gap, abs=1e-12)
        assert rep.epsilon_floor_drop == pytest.approx(floor, abs=1e-12)
        assert [J for J, _ in rep.violating_subsets] == \
            [J for J, _ in violating]
        assert [s for _, s in rep.violating_subsets] == \
            pytest.approx([s for _, s in violating], abs=1e-12)
    assert dropped > 0   # 5 open violators on these nets


def test_example1_validation():
    rep = validate_network(example1())
    assert rep.crp_holds
    assert rep.hall_gap == pytest.approx(1 / 8, abs=1e-12)
    assert rep.lambda_min == pytest.approx(3 / 8, abs=1e-12)
    assert rep.nontrivial
    assert rep.epsilon_floor_drop == 0.0


def test_crp_violated_variant():
    rep = validate_network(example1_crp_violated())
    assert not rep.crp_holds
    assert ((0,), pytest.approx(-1 / 8)) in [
        (j, pytest.approx(s)) for (j, s) in rep.violating_subsets]
    assert rep.epsilon_floor_drop == pytest.approx(1 / 8)


def test_full_bipartite_is_trivial():
    net = build_network(2, 2, [(i, j) for i in range(2) for j in range(2)],
                        [[0.3, 0.2], [0.1, 0.4]])
    assert not validate_network(net).nontrivial


def test_neighborhoods():
    net = example1()
    assert neighborhood(net, {0}) == frozenset({0})
    assert neighborhood(net, {1}) == frozenset({0, 1})
    assert neighborhood(net, set()) == frozenset()


def test_normalization_idempotent():
    phi = np.array([[3.0, 1.0], [2.0, 2.0]])
    net1 = build_network(2, 2, [(0, 0), (0, 1), (1, 1)], phi)
    net2 = build_network(2, 2, [(0, 0), (0, 1), (1, 1)], net1.phi)
    assert np.array_equal(net1.phi, net2.phi)
    assert net1.phi.sum() == pytest.approx(1.0, abs=1e-15)


def test_zero_rate_demand_node_dropped():
    phi = [[0.5, 0.0], [0.0, 0.0], [0.25, 0.25]]
    with pytest.warns(UserWarning, match="zero arrival rate"):
        net = build_network(2, 3, [(0, 0), (1, 1), (0, 2), (1, 2)], phi)
    assert net.n_demand == 2
    # node 2 compacted to index 1, keeping its edges
    assert net.supply_neighbors(1) == (0, 1)


def zero_row_timed(times):
    """3 zones, demand row 0 all zero, 9-minute trips 1 <-> 2, and the
    given time matrices: compacting would give origin 0 zone 0's times."""
    t = np.ones((3, 3))
    t[1, 2] = t[2, 1] = 9.0
    phi = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    edges = [(i, j) for i in range(3) for j in range(3)]
    return build_network(3, 3, edges, phi, **{k: t for k in times})


@pytest.mark.parametrize("times", [("travel_time",), ("pickup_time",),
                                   ("travel_time", "pickup_time")])
def test_zero_rate_demand_node_on_a_timed_net_is_refused(times):
    with pytest.raises(NetworkError, match=r"demand node\(s\) \[0\] have "
                       "zero arrival rate, but timed mode"):
        zero_row_timed(times)


def test_zero_rate_demand_node_on_an_untimed_net_is_compacted():
    with pytest.warns(UserWarning, match="dropping 1 demand node"):
        net = zero_row_timed(())
    assert (net.n_demand, net.n_supply) == (2, 3)


def test_rejects_isolated_demand_node():
    with pytest.raises(NetworkError, match="no compatible supply"):
        build_network(2, 2, [(0, 0)], [[0.5, 0.0], [0.25, 0.25]])


def test_rejects_edgeless_supply_node():
    # such a node is an absorbing sink in the closed network
    with pytest.raises(NetworkError, match="no compatible demand"):
        build_network(2, 2, [(0, 0), (0, 1)], [[0.5, 0.0], [0.25, 0.25]])


def test_rejects_out_of_range_edge():
    with pytest.raises(NetworkError):
        build_network(2, 2, [(0, 0), (2, 1)], [[0.5, 0.0], [0.25, 0.25]])


def test_closed_subset_cap():
    # no subset lattice while pooling holds: a complete net validates at
    # any size, and the cap counts closed demand subsets
    n = 22
    net = build_network(n, n, [(i, j) for i in range(n) for j in range(n)],
                        np.full((n, n), 1.0))
    rep = validate_network(net)
    assert rep.crp_holds and rep.violating_subsets == []
    assert rep.hall_gap == pytest.approx(1 / n, abs=1e-12)
    # one union step can double the family before the cap is checked
    ring = symmetric_ring(30)
    tracemalloc.start()
    try:
        with pytest.raises(SubsetCapError,
                           match=r"^\d+ closed demand subsets exceed"):
            validate_network(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20   # 1.6 MiB


def test_symmetrize_demand():
    phi = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = symmetrize_demand(phi, 0.5)
    assert np.allclose(out, [[0.0, 0.75], [0.25, 0.0]])
    assert np.array_equal(symmetrize_demand(phi, 1.0), phi)
    sym = symmetrize_demand(phi, 0.0)
    assert np.allclose(sym, sym.T)
    assert np.allclose(sym.sum(axis=0), sym.sum(axis=1))
    with pytest.raises(NetworkError):
        symmetrize_demand(np.ones((2, 3)), 0.5)


def test_hall_gap_matches_bruteforce_on_random_instances():
    # independent bitmask enumeration, no shared code with the validator
    for seed in range(5):
        net = random_crp(4, seed=seed)
        row = net.phi.sum(axis=1)
        col = net.phi.sum(axis=0)
        m = net.n_demand
        gaps = []
        for mask in range(1, (1 << m) - 1):
            J = [j for j in range(m) if mask >> j & 1]
            nbrs = {i for (i, j) in net.edges if j in J}
            gaps.append(sum(col[i] for i in nbrs) - sum(row[j] for j in J))
        rep = validate_network(net)
        assert rep.hall_gap == pytest.approx(min(gaps), abs=1e-12)
        assert rep.crp_holds == (min(gaps) > 0)


def test_drift_constant_inequality():
    # supply-side cut bound: inflow-to-S minus demand-confined-to-S
    # is at least min(hall gap, lambda_min), exhaustively over cuts
    for net in [example1()] + [random_crp(4, seed=s) for s in range(3)]:
        rep = validate_network(net)
        bound = min(rep.hall_gap, rep.lambda_min)
        n = net.n_supply
        for mask in range(1, (1 << n) - 1):
            S = {i for i in range(n) if mask >> i & 1}
            inflow = sum(net.phi[j, k] for j in range(net.n_demand)
                         for k in S)
            confined = sum(net.phi[j].sum() for j in range(net.n_demand)
                           if set(net.supply_neighbors(j)) <= S)
            assert inflow - confined >= bound - 1e-12
