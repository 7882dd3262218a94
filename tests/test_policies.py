import math

import numpy as np
import pytest

from smwsim import (
    DROP,
    FluidPolicy,
    PriorityPolicy,
    SmwPolicy,
    policy_from_spec,
    solve_transportation,
    vanilla_policy,
)
import smwsim.policies as policies_module
from smwsim.chain import StateSpace
from smwsim.policies import NO_COMPATIBLE_SUPPLY, _argmax_table, smw_rows
from smwsim.instances import example1, random_crp, symmetric_ring
from smwsim.sim import fluid_flow


@pytest.fixture
def net():
    return example1()


def test_smw_basic(net):
    pol = SmwPolicy(net, [0.5, 0.5])
    assert pol.dispatch([3, 5], 1).source == 1
    assert pol.dispatch([4, 4], 1).source == 1     # tie -> highest index
    dec = pol.dispatch([0, 7], 0)
    assert dec.source == DROP and dec.reason == NO_COMPATIBLE_SUPPLY


def test_vanilla(net):
    pol = vanilla_policy(net)
    assert pol.dispatch([2, 1], 1).source == 0
    assert pol.dispatch([1, 1], 1).source == 1
    assert pol.dispatch([0, 0], 1).source == DROP


def test_smw_scaling_invariance(net):
    rng = np.random.default_rng(0)
    a = np.array([0.3, 0.7])
    for c in (0.5, 2.0, 13.0):
        scaled = c * a / (c * a).sum()
        p1, p2 = SmwPolicy(net, a), SmwPolicy(net, scaled)
        for _ in range(200):
            q = rng.integers(0, 10, 2)
            for j in range(2):
                assert p1.dispatch(q, j) == p2.dispatch(q, j)


def test_smw_ignores_destination(net):
    # dispatch takes no destination argument at all; decisions depend
    # only on (state, origin)
    pol = SmwPolicy(net, [0.5, 0.5])
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.integers(0, 6, 2)
        assert pol.dispatch(q, 1) == pol.dispatch(q.copy(), 1)


def test_priority(net):
    pol = PriorityPolicy(net, [[0], [1, 0]])
    assert pol.dispatch([5, 1], 1).source == 1
    assert pol.dispatch([5, 0], 1).source == 0
    assert pol.dispatch([0, 0], 1).source == DROP


def test_priority_rejects_bad_list(net):
    with pytest.raises(ValueError, match="permutation"):
        PriorityPolicy(net, [[0], [1]])


def test_priority_lists_hold_integer_node_indices():
    # int() would read 1.7 as node 1 and True as node 1
    net = random_crp(3, seed=0)
    lists = [net.supply_neighbors(j) for j in range(3)]
    assert PriorityPolicy(net, [np.array(lst) for lst in lists])._nbrs == \
        PriorityPolicy(net, lists)._nbrs
    for bad in ([[1.7, 2.7], [0.2, 2.9], [0.1, 1.5, 2.5]],
                [[i + 0.0 for i in lst] for lst in lists],
                [[True if i == 1 else i for i in lst] for lst in lists]):
        with pytest.raises(ValueError, match="not a permutation"):
            PriorityPolicy(net, bad)


def fluid_for(net):
    flow = solve_transportation(net.col_rates(), net.row_rates(),
                                np.zeros((2, 2)), support=list(net.edges))
    return FluidPolicy(net, flow)


def test_fluid_degenerate_table(net):
    mu = net.row_rates()
    flow = np.array([[mu[0], mu[1]], [0.0, 0.0]])   # all mass to node 0
    pol = FluidPolicy(net, flow)
    rng = np.random.default_rng(2)
    assert pol.dispatch([3, 1], 0, rng).source == 0
    # sampled node empty: drop even though node 1 has supply
    assert pol.dispatch([0, 5], 1, rng).source == DROP


def test_fluid_empirical_frequencies(net):
    pol = fluid_for(net)
    mu = net.row_rates()
    rng = np.random.default_rng(3)
    counts = np.zeros(2)
    n_draws = 100_000
    for _ in range(n_draws):
        dec = pol.dispatch([5, 5], 1, rng)
        if dec.source != DROP:
            counts[dec.source] += 1
    target = pol.flow[:, 1] / mu[1]
    se = np.sqrt(target * (1 - target) / n_draws)
    assert np.all(np.abs(counts / n_draws - target) <= 3 * se + 1e-12)


def test_fluid_distribution_matches_sampler(net):
    pol = fluid_for(net)
    dist = pol.dispatch_table(np.array([[5, 0]]), 1)
    total = sum(p for _, p in dist)
    assert total == pytest.approx(1.0, abs=1e-12)
    for src, p in dist:
        assert src.tolist() in ([0], [DROP])   # node 1 is empty


def test_fluid_rejects_bad_flow_table(net):
    with pytest.raises(ValueError, match="column sums"):
        FluidPolicy(net, np.ones((2, 2)))


@pytest.mark.parametrize("flow, match", [
    ([[-0.2, 0.3], [0.5, 0.1]], "nonnegative"),
    ([[-0.2, 0.3], [0.0, 0.1]], "nonnegative"),
    ([[math.nan, 0.3], [0.0, 0.1]], "nonnegative"),
    ([[0.2, 0.3], [0.1, 0.1]], "not edges")])     # (1, 0) is no edge
def test_fluid_rejects_malformed_flow(net, flow, match):
    with pytest.raises(ValueError, match=match):
        FluidPolicy(net, flow)
    with pytest.raises(ValueError, match=match):
        policy_from_spec(net, {"kind": "fluid_random", "flow_table": flow})


def test_fluid_flow_passes_the_flow_checks():
    nets = [example1(), symmetric_ring(10), symmetric_ring(30, True)] + [
        random_crp(n, seed=s) for n in range(3, 13) for s in range(2)]
    for net in nets:
        flow = fluid_flow(net)
        assert np.all(flow >= 0) and np.all(flow[~net.adjacency.T] == 0)
        FluidPolicy(net, flow)


@pytest.mark.parametrize("beta", [-0.1, math.nan, math.inf])
def test_pickup_rejects_beta_outside_0_to_inf(beta):
    net = example1(with_times=True)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        SmwPolicy(net, [0.5, 0.5], beta)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        policy_from_spec(net, {"kind": "smw_pickup", "alpha": [0.5, 0.5],
                               "beta": beta})


def _smw_loop(alpha, nbrs, queues, origin):
    """SMW as a plain zero-penalty loop: the nonempty node of largest
    q / alpha, ties to the higher index."""
    best, src = 0.0, DROP
    for i in nbrs[origin]:
        if queues[i] > 0 and queues[i] * (1.0 / alpha[i]) >= best:
            best, src = queues[i] * (1.0 / alpha[i]), i
    return src


def test_pickup_beta_zero_matches_smw():
    # SMW and pickup-aware SMW at beta = 0 against a plain zero-penalty
    # loop, on every state of 0 to 6 vehicles (the all-empty one included)
    ties = drops = 0
    nets = [example1(with_times=True)] + [net for net, _ in _kernel_cases()]
    for net in nets:
        n = net.n_supply
        states = [q for K in range(7)
                  for q in StateSpace.enumerate(n, K).states.tolist()]
        nbrs = [net.supply_neighbors(j) for j in range(net.n_demand)]
        for a in (np.full(n, 1.0 / n), np.arange(1.0, n + 1) * 2 / (n * n + n)):
            base, pick = SmwPolicy(net, a), SmwPolicy(net, a, 0.0)
            for q in states:
                for j in range(net.n_demand):
                    want = _smw_loop(base.alpha, nbrs, q, j)
                    assert base.dispatch(q, j).source == want
                    assert pick.dispatch(q, j).source == want
                    drops += want == DROP
                    scores = sorted(q[i] / a[i] for i in
                                    net.supply_neighbors(j) if q[i] > 0)
                    ties += len(scores) > 1 and scores[-1] == scores[-2]
    assert ties > 0 and drops > 0


def make_pickup_net(pickup):
    base = example1(with_times=True)
    from smwsim import build_network
    return build_network(2, 2, list(base.edges), base.phi,
                         base.travel_time, pickup)


def test_pickup_prefers_near_node():
    # equal scaled queues; pickup times to origin 1 are (10, 2)
    net = make_pickup_net([[3.0, 10.0], [3.0, 2.0]])
    pol = SmwPolicy(net, [0.5, 0.5], beta=0.1)
    assert pol.dispatch([4, 4], 1).source == 1
    far = make_pickup_net([[3.0, 2.0], [3.0, 10.0]])
    pol2 = SmwPolicy(far, [0.5, 0.5], beta=0.1)
    assert pol2.dispatch([4, 4], 1).source == 0
    assert pol.dispatch([0, 0], 1).source == DROP


def test_pickup_requires_matrix(net):
    with pytest.raises(ValueError, match="pickup time"):
        SmwPolicy(net, [0.5, 0.5], 0.1)


def test_policy_from_spec(net):
    assert isinstance(policy_from_spec(net, {"kind": "vanilla_mw"}), SmwPolicy)
    pol = policy_from_spec(net, {"kind": "smw", "alpha": [0.9, 0.1]})
    assert np.allclose(pol.alpha, [0.9, 0.1])
    with pytest.raises(ValueError, match="unknown policy"):
        policy_from_spec(net, {"kind": "nope"})


def test_fluid_decline_atom():
    flow = 0.75 * fluid_for(example1()).flow
    pol = FluidPolicy(example1(), flow)
    dist = pol.dispatch_table(np.array([[5, 5]]), 1)
    declined = [p for src, p in dist if src[0] == DROP]   # no node is empty
    assert declined == [pytest.approx(0.25, abs=1e-12)]


def _choice_reference(pol, origin, rng):
    """Fluid draw as Generator.choice over the decision table: the source
    of each atom (queues are all positive, so every atom names one)."""
    dist = pol.dispatch_table(np.ones((1, pol.net.n_supply), int), origin)
    sources = np.array([src[0] for src, _ in dist])
    return int(rng.choice(sources, p=np.array([p for _, p in dist])))


@pytest.mark.parametrize("seed", range(4))
def test_fluid_draw_matches_generator_choice(seed):
    net = random_crp(4, seed=seed)
    flow = solve_transportation(net.col_rates(), net.row_rates(),
                                np.zeros((4, 4)), support=list(net.edges))
    pol = FluidPolicy(net, (0.9 if seed % 2 else 1.0) * flow)
    full = [1] * net.n_supply
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(3000):
        j = t % net.n_demand
        assert pol.dispatch(full, j, a).source == _choice_reference(pol, j, b)
        if t % 3 == 0:
            assert a.exponential(0.5) == b.exponential(0.5)
    assert a.bit_generator.state == b.bit_generator.state


def test_decisions_same_on_list_and_int_array():
    net = example1(with_times=True)
    pols = [vanilla_policy(net), SmwPolicy(net, [0.7, 0.3]),
            PriorityPolicy(net, [[0], [0, 1]]),
            SmwPolicy(net, [0.4, 0.6], 0.3), fluid_for(net)]
    rng = np.random.default_rng(5)
    for pol in pols:
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(500):
            q = rng.integers(0, 4, 2)
            j = int(rng.integers(0, 2))
            assert pol.dispatch(q.tolist(), j, a) == pol.dispatch(q, j, b)


def _kernel_cases():
    for n in (3, 4):
        for seed in range(3):
            net = random_crp(n, seed=seed, with_times=True)
            alpha = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
            yield net, [vanilla_policy(net), SmwPolicy(net, alpha),
                        PriorityPolicy(net, [net.supply_neighbors(j)[::-1]
                                             for j in range(n)]),
                        SmwPolicy(net, alpha[::-1], 0.05)]


def test_dispatch_table_equals_scalar_dispatch():
    ties = 0
    for net, pols in _kernel_cases():
        states = StateSpace.enumerate(net.n_supply, 6).states
        for pol in pols:
            for j in range(net.n_demand):
                (src, p), = pol.dispatch_table(states, j)
                assert p == 1.0
                assert src.tolist() == [pol.dispatch(q, j).source
                                        for q in states.tolist()]
        for q in states.tolist():
            for j in range(net.n_demand):
                longest = sorted(q[i] for i in net.supply_neighbors(j))[-2:]
                ties += len(longest) == 2 and longest[0] == longest[1] > 0
    assert ties > 0     # vanilla broke ties between nonempty queues


def _first_nonempty(lists, queues, origin):
    """Static priority as a plain loop: the first listed node with supply."""
    for i in lists[origin]:
        if queues[i] > 0:
            return i
    return DROP


def test_priority_serves_the_first_nonempty_node_listed():
    rng = np.random.default_rng(9)
    for net, _ in _kernel_cases():
        states = StateSpace.enumerate(net.n_supply, 6).states
        nbrs = [list(net.supply_neighbors(j)) for j in range(net.n_demand)]
        for lists in (nbrs, [lst[::-1] for lst in nbrs],
                      [rng.permutation(lst).tolist() for lst in nbrs]):
            pol = PriorityPolicy(net, lists)
            for j in range(net.n_demand):
                want = [_first_nonempty(lists, q, j) for q in states.tolist()]
                assert [pol.dispatch(q, j).source
                        for q in states.tolist()] == want
                (src, _), = pol.dispatch_table(states, j)
                assert src.tolist() == want


def test_population_table_equals_each_policy_table():
    # inv and penalty with a leading candidate axis: one source row per
    # candidate, bit for bit its own policy's table
    rng, drops = np.random.default_rng(8), 0
    betas = np.array([[0.0], [0.05], [0.3], [1.0], [0.0], [2.5]])
    for net, _ in _kernel_cases():
        n = net.n_supply
        # uniform alpha: ties between equal nonempty queues
        alphas = np.vstack([np.full(n, 1.0 / n), rng.dirichlet(np.ones(n), 5)])
        states = StateSpace.enumerate(n, 6).states
        for j in range(net.n_demand):
            nbrs = list(net.supply_neighbors(j))
            for pickup in (False, True):
                pen = betas * net.pickup_time[nbrs, j] if pickup else 0.0
                (src, p), = _argmax_table(states, nbrs, 1.0 / alphas[:, nbrs],
                                          pen)
                assert p == 1.0 and src.shape == (len(alphas), len(states))
                for c, alpha in enumerate(alphas):
                    pol = SmwPolicy(net, alpha, betas[c, 0]) \
                        if pickup else SmwPolicy(net, alpha)
                    (ref, _), = pol.dispatch_table(states, j)
                    assert src[c].tobytes() == ref.tobytes()
                drops += int((src == DROP).sum())
    assert drops > 0    # rows whose compatible queues are all empty


def test_smw_rows_are_the_policies_own():
    # the builder's rows with a candidate axis, through _argmax_table, give
    # each policy's dispatch_table row for row, and dispatch agrees
    rng = np.random.default_rng(31)
    for net, pickup in ((example1(), False),
                        (example1(with_times=True), True)):
        n = net.n_supply
        alphas = rng.dirichlet(np.ones(n), 20)
        betas = rng.exponential(0.5, 20) if pickup else None
        states = StateSpace.enumerate(n, 12).states
        pols = [SmwPolicy(net, a, betas[c]) if pickup
                else SmwPolicy(net, a) for c, a in enumerate(alphas)]
        for j, rows in enumerate(smw_rows(net, alphas, betas)):
            (src, p), = _argmax_table(states, *rows)
            assert p == 1.0 and src.shape == (20, len(states))
            for c, pol in enumerate(pols):
                (ref, _), = pol.dispatch_table(states, j)
                assert src[c].tobytes() == ref.tobytes()
                for k in rng.choice(len(states), 10).tolist():
                    assert pol.dispatch(states[k].tolist(), j).source == \
                        src[c, k]


def test_smw_policies_build_their_rows_once(monkeypatch):
    calls = []
    real = policies_module.smw_rows
    monkeypatch.setattr(policies_module, "smw_rows",
                        lambda *a: calls.append(a[2]) or real(*a))
    net = example1(with_times=True)
    assert SmwPolicy(net, [0.5, 0.5]).beta is None
    assert SmwPolicy(net, [0.5, 0.5], 0.25).beta == 0.25
    assert calls == [None, 0.25]


def test_fluid_table_equals_flow_table():
    for n in (3, 4):
        for seed in range(3):
            net = random_crp(n, seed=seed)
            flow = solve_transportation(net.col_rates(), net.row_rates(),
                                        np.zeros((n, n)),
                                        support=list(net.edges))
            pol = FluidPolicy(net, (0.8 if seed else 1.0) * flow)
            states = StateSpace.enumerate(n, 6).states
            for j in range(n):
                probs = pol.flow[:, j] / net.row_rates()[j]
                want = [(np.where(states[:, i] > 0, i, DROP), probs[i])
                        for i in range(n) if probs[i] > 0]
                if 1.0 - probs.sum() > 1e-12:
                    want.append((np.full(len(states), DROP),
                                 1.0 - probs.sum()))
                got = pol.dispatch_table(states, j)
                assert len(got) == len(want) > 0
                for (src, p), (ref_src, ref_p) in zip(got, want):
                    assert np.array_equal(src, ref_src)
                    assert p == pytest.approx(ref_p, rel=1e-15, abs=1e-16)
