import gc
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from smwsim import (
    FluidPolicy,
    PriorityPolicy,
    SmwPolicy,
    build_chain,
    build_network,
    exact_exponent_curve,
    gamma,
    optimal_alpha,
    TimedConfig,
    estimate_exponent,
    run_jump_chain,
    run_timed,
    stationary_drop_probability,
    uniform_alpha,
    vanilla_policy,
)
from smwsim import chain
from smwsim.chain import (DropUnderflowError, StateCapError, StateSpace,
                          transitions)
from smwsim.instances import (example1, example1_crp_violated, random_crp,
                              symmetric_ring)
from smwsim.lp import solve_transportation
from smwsim.policies import DROP
from smwsim.sim import fluid_flow
from smwsim.tuner import _clip_simplex

from best_smw import best_smw, table_keys


def fluid_policy(net):
    """Fluid policy built the way the CLI builds it (zero pickup cost)."""
    flow = solve_transportation(net.col_rates(), net.row_rates(),
                                np.zeros((net.n_supply, net.n_demand)),
                                support=list(net.edges))
    return FluidPolicy(net, flow)


def reference_atoms(policy, q, j):
    """[(source or DROP, prob)] of one (state, origin): scalar dispatch for
    the deterministic policies, the flow table for fluid."""
    if not isinstance(policy, FluidPolicy):
        return [(policy.dispatch(q, j).source, 1.0)]
    probs = policy.flow[:, j] / policy.net.row_rates()[j]
    atoms = [(i if q[i] > 0 else DROP, p) for i, p in enumerate(probs) if p > 0]
    decline = 1.0 - probs.sum()
    return atoms + ([(DROP, decline)] if decline > 1e-12 else [])


def reference_chain(net, policy, K):
    """Reference atoms per (state, origin, destination), dict-indexed."""
    states = StateSpace.enumerate(net.n_supply, K).states
    index = {tuple(s): r for r, s in enumerate(states.tolist())}
    rows, cols, vals = [], [], []
    drop_mass = np.zeros(len(states))
    for r, q in enumerate(states):
        for j in range(net.n_demand):
            for k in range(net.n_supply):
                p = net.phi[j, k]
                if p == 0.0:
                    continue
                for source, w in reference_atoms(policy, q, j):
                    pw = p * w
                    if pw == 0.0:
                        continue
                    if source == DROP:
                        drop_mass[r] += pw
                        tgt = r
                    elif source == k:
                        tgt = r
                    else:
                        nxt = q.copy()
                        nxt[source] -= 1
                        nxt[k] += 1
                        tgt = index[tuple(nxt)]
                    rows.append(r)
                    cols.append(tgt)
                    vals.append(pw)
    P = sps.csr_matrix((vals, (rows, cols)), shape=(len(states),) * 2)
    P.sum_duplicates()
    return P, drop_mass


def test_state_space_counts():
    for n, K in [(2, 5), (3, 4), (4, 6)]:
        sp = StateSpace.enumerate(n, K)
        assert sp.states.shape[0] == math.comb(K + n - 1, n - 1)
        rows = {tuple(q): r for r, q in enumerate(sp.states.tolist())}
        assert list(rows) == sorted(rows)       # lexicographic, no repeat
        assert len(rows) == sp.states.shape[0]
        assert rows[(K,) + (0,) * (n - 1)] == sp.states.shape[0] - 1
        assert np.all(sp.states.sum(axis=1) == K)


def test_state_cap():
    with pytest.raises(StateCapError):
        StateSpace.enumerate(10, 100, cap=1000)


def test_negative_fleet_size_rejected():
    net = example1()
    with pytest.raises(ValueError, match="K=-1"):
        StateSpace.enumerate(2, -1)
    with pytest.raises(ValueError, match="K=-1"):
        stationary_drop_probability(net, vanilla_policy(net), -1)


def test_example1_k1_transitions():
    net = example1()
    P, drop, sp = build_chain(net, SmwPolicy(net, [0.5, 0.5]), 1)
    Pd = P.toarray()
    rows = {tuple(q): r for r, q in enumerate(sp.states.tolist())}
    i10, i01 = rows[1, 0], rows[0, 1]
    assert Pd[i10, i10] == pytest.approx(5 / 8)
    assert Pd[i10, i01] == pytest.approx(3 / 8)
    assert Pd[i01, i01] == pytest.approx(3 / 4)
    assert Pd[i01, i10] == pytest.approx(1 / 4)
    assert drop[i10] == 0.0
    assert drop[i01] == pytest.approx(1 / 2)


def test_rows_stochastic_on_fuzzed_instances():
    for seed in range(3):
        net = random_crp(3, seed=seed)
        P, _, _ = build_chain(net, vanilla_policy(net), 4)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_k0_absorbing():
    net = example1()
    P, drop, _ = build_chain(net, vanilla_policy(net), 0)
    assert P.shape == (1, 1)
    assert P[0, 0] == pytest.approx(1.0)
    assert drop[0] == pytest.approx(1.0)
    assert stationary_drop_probability(net, vanilla_policy(net), 0) \
        .drop_probability == pytest.approx(1.0)


def test_example1_k1_exact_drop():
    net = example1()
    sol = stationary_drop_probability(net, SmwPolicy(net, [0.5, 0.5]), 1)
    assert sol.drop_probability == pytest.approx(3 / 10, abs=1e-12)
    assert sol.residual <= 1e-10
    pi = dict(zip([tuple(sol.space.states[i]) for i in sol.class_states],
                  sol.stationary))
    assert pi[(1, 0)] == pytest.approx(2 / 5, abs=1e-12)
    assert pi[(0, 1)] == pytest.approx(3 / 5, abs=1e-12)


def test_priority_vs_smw_at_k1():
    net = example1()
    smw = stationary_drop_probability(net, SmwPolicy(net, [0.5, 0.5]), 1)
    pri = stationary_drop_probability(
        net, PriorityPolicy(net, [[0], [1, 0]]), 1)
    assert pri.drop_probability <= smw.drop_probability + 1e-12


def test_full_flexibility_never_drops():
    net = build_network(2, 2, [(i, j) for i in range(2) for j in range(2)],
                        [[0.3, 0.2], [0.1, 0.4]])
    for K in (1, 3):
        sol = stationary_drop_probability(net, vanilla_policy(net), K)
        assert sol.drop_probability == pytest.approx(0.0, abs=1e-15)


def test_curve_monotone_and_matches_simulation():
    net = example1()
    pol = SmwPolicy(net, [0.5, 0.5])
    curve = exact_exponent_curve(net, pol, [10, 20, 30])
    neglog = [-math.log(p) for _, p in curve]
    assert neglog == sorted(neglog)

    K = 10
    exact = dict(curve)[K]
    steps, warmup = 400_000, 40_000
    rep = run_jump_chain(net, pol, K, steps, warmup=warmup, seed=21)
    n = steps - warmup
    se = math.sqrt(exact * (1 - exact) / n)
    # allow extra slack for autocorrelation in the chain
    assert abs(rep.drop_fraction - exact) <= 6 * se


def test_alpha_ordering_at_finite_k():
    net = example1()
    p_heavy = stationary_drop_probability(
        net, SmwPolicy(net, [0.9, 0.1]), 40).drop_probability
    p_uniform = stationary_drop_probability(
        net, SmwPolicy(net, [0.5, 0.5]), 40).drop_probability
    assert p_heavy < p_uniform


def dirichlet_alphas(n, count, seed=0, floor=1e-3):
    rng = np.random.default_rng(seed)
    return np.array([_clip_simplex(a, floor)
                     for a in rng.dirichlet(np.ones(n), count)])


def test_best_smw_reference_beats_vanilla_and_the_lp_vertex():
    # the finite-K best SMW over an alpha sample, one solve per table key
    net, K = random_crp(3, seed=0), 10
    alphas = dirichlet_alphas(3, 400)
    best, alpha, keys = best_smw(net, alphas, K)
    assert keys == 340 and best <= 1e-10     # 7.72e-11
    assert best == stationary_drop_probability(
        net, SmwPolicy(net, alpha), K).drop_probability
    for policy in (vanilla_policy(net), SmwPolicy(net, optimal_alpha(net)[0])):
        # 1.29e-7 and 1.81e-7
        assert stationary_drop_probability(net, policy, K).drop_probability \
            >= 100 * best


def test_alphas_with_one_table_key_have_one_drop_probability():
    net, K = random_crp(3, seed=0), 10
    alphas = dirichlet_alphas(3, 60, seed=1)
    keys = table_keys(net, alphas, K)
    assert len(keys) < len(alphas)
    first = {c: stationary_drop_probability(net, SmwPolicy(net, alphas[c]), K)
             for c in keys.values()}
    for key, c in table_keys(net, alphas[::-1], K).items():   # last first
        got = stationary_drop_probability(
            net, SmwPolicy(net, alphas[::-1][c]), K)
        want = first[keys[key]]
        assert got.stationary.tobytes() == want.stationary.tobytes()
        assert got.drop_probability == want.drop_probability


def test_crp_violating_floor():
    net = example1_crp_violated()
    for K in (1, 5, 10, 20):
        sol = stationary_drop_probability(net, vanilla_policy(net), K)
        assert sol.drop_probability >= 1 / 8 - 1e-12


@pytest.mark.parametrize("n, K", [(2, 300), (4, 0), (4, 40), (5, 12), (40, 2)])
def test_shift_map_matches_rank(n, K):
    """Every next row from the order-preserving shift is the row of the
    explicit neighbor q - e_s + e_d; a row that does not move keeps its
    own index."""
    net = symmetric_ring(n) if n > 5 else random_crp(n, seed=1)
    space = StateSpace.enumerate(n, K)
    rows = {tuple(q): r for r, q in enumerate(space.states.tolist())}
    for pol in (vanilla_policy(net), fluid_policy(net)):
        row, source, pw, tgt = transitions(net, [pol.dispatch_table(
            space.states, j) for j in range(net.n_demand)], space)
        move = (pw != 0.0) & (source[:, None] != DROP) \
            & (source[:, None] != np.arange(n))
        at, dest = np.nonzero(move)
        nxt = space.states[row[at]]
        nxt[np.arange(len(at)), source[at]] -= 1
        nxt[np.arange(len(at)), dest] += 1
        assert nxt.min(initial=0) >= 0
        assert tgt[move].tolist() == [rows[tuple(q)] for q in nxt.tolist()]
        assert np.array_equal(tgt[~move], np.broadcast_to(
            row[:, None], tgt.shape)[~move])
        assert move.any() == (K > 0)


class _PlaneSpy:
    """Stands in for numpy in ``chain``, recording the candidate planes of
    a dissection (its one ``hstack``) and the (plane, value) each step
    picks; everything else passes through."""

    def __init__(self):
        self.planes, self.picks = None, []

    def __getattr__(self, name):
        return getattr(np, name)

    def hstack(self, arrays):
        self.planes = np.hstack(arrays)
        return self.planes

    def unravel_index(self, flat, shape):
        pick = np.unravel_index(flat, shape)
        self.picks.append(tuple(map(int, pick)))
        return pick


def test_dissection_splits_are_separators(monkeypatch):
    """Whichever plane a split takes, a coordinate or a pair sum, P has no
    entry between its lower and its upper side."""
    spy = _PlaneSpy()
    monkeypatch.setattr(chain, "np", spy)
    pair_splits = 0
    for n, K in ((4, 15), (5, 10)):
        for seed in range(3):
            net = random_crp(n, seed=seed)
            priority = PriorityPolicy(net, [net.supply_neighbors(j)[::-1]
                                            for j in range(n)])
            for pol in (vanilla_policy(net), priority, fluid_policy(net)):
                P, _, _ = build_chain(net, pol, K)
                members = stationary_drop_probability(
                    net, pol, K).class_states
                states = StateSpace.enumerate(n, K).states[members]
                spy.picks.clear()
                order = chain._dissection_order(states)
                assert np.array_equal(np.sort(order), np.arange(len(states)))
                planes = spy.planes
                assert np.array_equal(planes[:, :n], states)
                assert planes.shape[1] == n + n * (n - 1) // 2
                sub = P[members][:, members]
                for c, m in spy.picks:
                    lower, upper = planes[:, c] < m, planes[:, c] > m
                    assert sub[lower][:, upper].nnz == 0
                    assert sub[upper][:, lower].nnz == 0
                    pair_splits += c >= n and lower.any() and upper.any()
    assert pair_splits > 0


def _equivalence_cases():
    for seed in range(3):
        net = random_crp(3, seed=seed)
        yield net, SmwPolicy(net, [0.5, 0.3, 0.2])
        yield net, PriorityPolicy(
            net, [net.supply_neighbors(j)[::-1] for j in range(3)])
        yield net, fluid_policy(net)
    net = example1_crp_violated()
    yield net, vanilla_policy(net)


def test_build_chain_matches_reference_loop():
    most_atoms = 0
    for net, pol in _equivalence_cases():
        K = 5
        P_ref, drop_ref = reference_chain(net, pol, K)
        atoms, table = [], pol.dispatch_table

        def counted(states, j, table=table, atoms=atoms):
            out = table(states, j)
            atoms.append(len(out))
            return out

        pol.dispatch_table = counted
        P, drop, space = build_chain(net, pol, K)
        assert len(atoms) == net.n_demand       # one table per origin
        assert np.abs(P.toarray() - P_ref.toarray()).max() <= 1e-15
        assert np.abs(drop - drop_ref).max() <= 1e-15
        most_atoms = max(most_atoms, max(atoms))
    assert most_atoms > 1       # a randomized policy was expanded


def test_stationary_entrywise_positive():
    net = random_crp(4, seed=1)
    alpha, _ = optimal_alpha(net)
    for pol in (vanilla_policy(net), SmwPolicy(net, alpha), fluid_policy(net)):
        sol = stationary_drop_probability(net, pol, 30)
        assert np.all(sol.stationary > 0)
        assert sol.residual <= 1e-12


@pytest.mark.parametrize("alpha", [(0.5, 0.5), (0.9, 0.1)])
def test_tail_slope_matches_gamma(alpha):
    net = example1()
    curve = exact_exponent_curve(net, SmwPolicy(net, alpha), [100, 200, 300])
    assert all(p > 0 for _, p in curve)
    g = gamma(net, alpha).gamma
    for (k0, p0), (k1, p1) in zip(curve, curve[1:]):
        slope = -(math.log(p1) - math.log(p0)) / (k1 - k0)
        assert slope == pytest.approx(g, abs=1e-3)


@pytest.mark.parametrize("n, seed, Ks", [
    *((3, s, (100, 200, 300, 400)) for s in range(5)),
    *((4, s, (30, 45, 60)) for s in (0, 3))])
def test_fitted_tail_slope_matches_gamma_on_random_nets(n, seed, Ks):
    # the least-squares slope over every K, off by at most 0.34% here;
    # a two-point slope misses by 2% (random_crp(3, 1), K=300 to 400)
    net = random_crp(n, seed=seed)
    alpha = uniform_alpha(n)
    slope, _ = estimate_exponent(
        exact_exponent_curve(net, SmwPolicy(net, alpha), Ks))
    assert slope == pytest.approx(gamma(net, alpha).gamma, rel=0.01)


ENTRY_POINTS = {
    "run_jump_chain": lambda net, pol: run_jump_chain(net, pol, 10, 100),
    "run_timed": lambda net, pol: run_timed(net, pol,
                                            TimedConfig(1.0, 50.0, 10)),
    "build_chain": lambda net, pol: build_chain(net, pol, 10),
    "stationary_drop_probability":
        lambda net, pol: stationary_drop_probability(net, pol, 10),
    "exact_exponent_curve":
        lambda net, pol: exact_exponent_curve(net, pol, [10, 12]),
}


@pytest.mark.parametrize("run", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_policy_runs_only_on_the_net_it_was_built_on(run):
    # random_crp(4, 0) under vanilla_policy(random_crp(4, 1)) served demand
    # through non-edges: exact p = 0.0841 at K=10, against 0.0421 for the
    # net's own policy.  A dataclasses.replace copy is another net too.
    timed = run is ENTRY_POINTS["run_timed"]
    make = partial(random_crp, 4, with_times=timed)
    net = make(seed=0)
    for other in (make(seed=1), replace(net)):
        with pytest.raises(ValueError, match="built on another net"):
            run(net, vanilla_policy(other))
    run(net, vanilla_policy(net))


@pytest.mark.parametrize("n, K", [(4, 20), (5, 10)])
def test_stationary_matches_mmd_ordered_solve(n, K):
    net = random_crp(n, seed=1)
    alpha, _ = optimal_alpha(net)
    priority = PriorityPolicy(net, [net.supply_neighbors(j)[::-1]
                                    for j in range(n)])
    for pol in (vanilla_policy(net), SmwPolicy(net, alpha), priority):
        P, _, _ = build_chain(net, pol, K)
        sol = stationary_drop_probability(net, pol, K)
        members = sol.class_states
        pin = int(sol.stationary.argmax())      # this solve pins the mode
        keep = np.delete(members, pin)
        A = (sps.eye(len(keep)) - P[keep][:, keep]).T.tocsc()
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
        ref = np.ones(len(members))
        ref[np.arange(len(members)) != pin] = lu.solve(
            P[members[pin]][:, keep].toarray().ravel())
        ref /= ref.sum()
        assert np.all(np.abs(sol.stationary / ref - 1.0) <= 1e-12)
        assert sol.lu_nnz > len(members)


@pytest.mark.parametrize("make, K", [
    (vanilla_policy, 300),
    (lambda net: PriorityPolicy(net, [[0], [1, 0]]), 200)])
def test_example1_matches_birth_death_product(make, K):
    """On example1 the chain is a birth-death chain in x = queue at node 0:
    pi(x + 1) / pi(x) = up(x) / down(x + 1), with up and down summed from
    phi and the policy's scalar decisions.  Under priority the mass sits
    at x = K - 1, far from the resting point."""
    net = example1()
    pol = make(net)
    sol = stationary_drop_probability(net, pol, K)
    up, down = np.zeros(K + 1), np.zeros(K + 1)
    for x in range(K + 1):
        for j in range(2):
            src = pol.dispatch([x, K - x], j).source
            up[x] += net.phi[j, 0] * (src == 1)
            down[x] += net.phi[j, 1] * (src == 0)
    xs = sol.space.states[sol.class_states, 0]
    assert np.array_equal(np.diff(np.sort(xs)), np.ones(len(xs) - 1))
    lo, hi = xs.min(), xs.max()
    log_w = np.concatenate([[0.0], np.cumsum(np.log(
        up[lo:hi] / down[lo + 1:hi + 1]))])
    ref = np.exp(log_w - log_w.max())
    ref = (ref / ref.sum())[xs - lo]
    assert ref.min() < 1e-25                    # the tail is resolved
    assert np.all(np.abs(sol.stationary / ref - 1.0) <= 1e-12)


def _jackson_nets():
    yield "example1", example1()
    yield "ring5-timed", symmetric_ring(5, with_times=True)
    yield "crp3-0-timed", random_crp(3, seed=0, with_times=True)
    for n in (3, 4, 5):
        for seed in range(3):
            yield f"crp{n}-{seed}", random_crp(n, seed=seed)


@pytest.mark.parametrize("net", [net for _, net in _jackson_nets()],
                         ids=[name for name, _ in _jackson_nets()])
def test_fluid_drop_is_the_closed_jackson_form(net):
    """Under the fluid flow, node i serves at the rate its inflow brings
    (flow columns sum to the demand rates, rows to the inflows), so the
    jump chain is a closed Jackson network with equal visit ratios: every
    state of the simplex is equally likely, and a demand drops when it
    draws an empty node, with probability (n - 1) / (K + n - 1)."""
    pol = FluidPolicy(net, fluid_flow(net))
    n = net.n_supply
    for K in (5, 10, 20):
        p = stationary_drop_probability(net, pol, K).drop_probability
        assert abs(p / ((n - 1) / (K + n - 1)) - 1.0) <= 1e-12


def test_stationary_solve_leaves_no_garbage():
    net = random_crp(4, seed=1)
    gc.collect()
    gc.disable()
    try:
        stationary_drop_probability(net, vanilla_policy(net), 20)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def tail_net():
    # gamma = 1.6045 under uniform alpha: p leaves the normal doubles past
    # K = 440
    return random_crp(3, seed=0)


def test_tail_inside_the_normal_range_is_returned(tail_net):
    sol = stationary_drop_probability(tail_net, vanilla_policy(tail_net), 440)
    assert sol.drop_probability == pytest.approx(5.97e-307, rel=1e-3)
    assert sol.drop_probability >= np.finfo(float).tiny


@pytest.mark.parametrize("K", [460, 480])    # subnormal 3.5e-321, then 0.0
def test_tail_below_the_normal_range_raises(tail_net, K):
    with pytest.raises(DropUnderflowError, match=f"K={K}"):
        stationary_drop_probability(tail_net, vanilla_policy(tail_net), K)
    assert issubclass(DropUnderflowError, RuntimeError)


def test_a_class_that_cannot_drop_returns_exactly_zero():
    # complete 2x2 net: a car always serves, so no state carries drop mass
    net = build_network(2, 2, [(i, j) for i in range(2) for j in range(2)],
                        np.ones((2, 2)))
    for K in (1, 5, 40):
        assert stationary_drop_probability(
            net, vanilla_policy(net), K).drop_probability == 0.0
