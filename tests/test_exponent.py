import itertools
import math
from functools import partial

import numpy as np
import pytest

from smwsim import (
    PoolingViolationError,
    SubsetStats,
    build_network,
    drainable_subsets,
    gamma,
    kl_rate,
    lyapunov,
    min_drift_speed,
    most_likely_path,
    optimal_alpha,
    uniform_alpha,
    validate_network,
)
import smwsim.instances as instances
from smwsim.instances import (
    example1,
    example1_crp_violated,
    random_crp,
    symmetric_ring,
)
from smwsim.exponent import _drainable, check_alpha
from smwsim.lp import LinearProgram, solve_lp
from smwsim.network import (SUM_BLOCK, Network, SubsetCapError,
                            closed_subsets, hall_subsets, mask_indices,
                            masked_sum)
from subset_lattice import (every_drainable_subset, neighborhood, subset_table,
                            table_order)

LOG2 = math.log(2)


def gamma_oracle(net, alpha):
    """Straight-loop recomputation of the exponent, sharing no code path."""
    m, n = net.n_demand, net.n_supply
    best = math.inf
    for mask in range(1, (1 << m) - 1):
        J = [j for j in range(m) if mask >> j & 1]
        nbrs = {i for (i, j) in net.edges if j in J}
        mu = sum(net.phi[j][k] for j in J for k in range(n) if k not in nbrs)
        if mu <= 0:
            continue
        lam = sum(net.phi[j][k] for j in range(m) if j not in J for k in nbrs)
        best = min(best, sum(alpha[i] for i in nbrs) * math.log(lam / mu))
    return best


def test_example1_drainable_subsets():
    subs = drainable_subsets(example1())
    assert len(subs) == 1
    st = subs[0]
    assert st.members == (0,)
    assert st.boundary == (0,)
    assert st.lambda_rate == pytest.approx(1 / 4)
    assert st.mu_rate == pytest.approx(1 / 8)
    assert st.log_ratio == pytest.approx(LOG2)


def test_full_flexibility_has_no_drainable_subset():
    net = build_network(2, 2, [(i, j) for i in range(2) for j in range(2)],
                        [[0.3, 0.2], [0.1, 0.4]])
    assert drainable_subsets(net) == []
    res = gamma(net, [0.5, 0.5])
    assert res.is_infinite


def drainable_subsets_loop(net):
    """The per-subset loop that drainable_subsets replaced, kept as its
    reference; the new code must match it bit for bit."""
    out = []
    for size in range(1, net.n_demand):
        for J in itertools.combinations(range(net.n_demand), size):
            boundary = sorted(neighborhood(net, J))
            bset, jset = set(boundary), set(J)
            mu = sum(net.phi[j, k] for j in J
                     for k in range(net.n_supply) if k not in bset)
            if mu <= 0.0:
                continue
            lam = sum(net.phi[j, k] for j in range(net.n_demand)
                      if j not in jset for k in boundary)
            out.append(SubsetStats(J, tuple(boundary), float(lam), float(mu)))
    return out


def edge_nets():
    """Nets at the edges of the subset pass: 70 supply nodes on 3 demand
    nodes, whose neighborhoods take two uint64 words (half of them with
    one dominant demand node, which breaks pooling), and nets with 1 or 2
    demand nodes, pooled and not."""
    rng = np.random.default_rng(11)
    nets = []
    for t, (n, m) in enumerate([(70, 3)] * 8
                               + [(3, 1), (4, 1), (2, 2), (3, 2), (5, 2)] * 3):
        phi = rng.exponential(size=(m, n)) * (rng.random((m, n)) < 0.7)
        phi[:, 0] += 0.1                       # no zero rows
        phi[t % m] *= 1 + 30 * (t % 2)
        edges = {(i, int(rng.integers(m))) for i in range(n)}
        edges |= {(int(rng.integers(n)), j) for j in range(m)}
        edges |= {(i, j) for i in range(n) for j in range(m)
                  if rng.random() < 0.3}
        nets.append(build_network(n, m, edges, phi))
    return nets


def test_drainable_subsets_equal_reference_loop():
    # drainable_subsets() lists the closed ones (and complements {j}^c
    # that reach N(all), which drain only on a raw net); the lattice
    # reference lists every one
    from test_network import hall_listing
    nets = [random_crp(n, seed=s) for n in range(3, 10) for s in range(5)]
    nets += [example1(),
             build_network(3, 3, [(i, j) for i in range(3) for j in range(3)],
                           np.arange(1.0, 10.0).reshape(3, 3))]
    nets += edge_nets()
    top, dropped = 0, 0
    for net in nets:
        every = drainable_subsets_loop(net)
        assert every_drainable_subset(net) == every
        subsets = drainable_subsets(net)
        assert subsets == hall_listing(net, every, lambda st: st.members)
        dropped += len(every) - len(subsets)
        top = max([top] + [st.boundary[-1] for st in subsets])
    assert top >= 64   # some neighborhood reaches the second uint64 word
    assert dropped > 100


def sparse_nets():
    """Hand-built nets, square and not, with zero-rate pairs and sparse
    edges (random_crp draws every rate positive)."""
    # a 3-ring whose demand stays inside each neighborhood: trivial
    ring = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
    inside = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    leak = [[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    nets = [build_network(3, 3, ring, inside), build_network(3, 3, ring, leak),
            build_network(3, 2, [(0, 0), (1, 0), (2, 1)],
                          [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])]
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        phi = rng.exponential(size=(m, n)) * (rng.random((m, n)) < 0.5)
        phi[:, 0] += 0.1                       # no zero rows
        edges = {(i, j) for i in range(n) for j in range(m)
                 if rng.random() < 0.4}
        edges |= {(int(rng.integers(n)), j) for j in range(m)}
        edges |= {(i, int(rng.integers(m))) for i in range(n)}
        nets.append(build_network(n, m, edges, phi))
    return nets


def test_drainable_exactly_when_nontrivial():
    # with two or more demand nodes, {j} drains through any rate from j
    # to a destination that does not serve j, and every draining subset
    # contains such a j
    nets = sparse_nets() + [example1(), example1_crp_violated(),
                            symmetric_ring(10)]
    seen = set()
    for net in nets:
        assert net.n_demand >= 2
        nontrivial = validate_network(net).nontrivial
        assert bool(drainable_subsets(net)) == nontrivial
        seen.add(nontrivial)
    assert seen == {False, True}


def test_one_demand_node_is_the_exception():
    # build_network makes every supply node serve the lone demand node,
    # so a built one-demand net is trivial and has no strict subset
    built = build_network(2, 1, [(0, 0), (1, 0)], [[0.5, 0.5]])
    assert not validate_network(built).nontrivial
    assert drainable_subsets(built) == []
    # a raw Network with an edgeless supply node is nontrivial, yet no
    # strict demand subset exists to drain
    raw = Network(2, 1, frozenset({(0, 0)}), np.array([[0.5, 0.5]]))
    assert validate_network(raw).nontrivial
    assert drainable_subsets(raw) == []


def test_random_crp_accepts_on_the_validation_report(monkeypatch):
    calls = []
    monkeypatch.setattr(instances, "drainable_subsets",
                        lambda net: calls.append(net) or [])
    for n in (2, 4, 8):
        assert validate_network(random_crp(n, seed=3)).nontrivial
    assert calls == []


@pytest.mark.parametrize("n", [30, 40])
def test_drainable_subsets_past_twenty_nodes_are_the_gamma_rows(n):
    for seed in range(2):
        net = random_crp(n, seed=seed)
        rows = gamma(net, uniform_alpha(n)).per_subset
        assert drainable_subsets(net) == [st for st, _, _ in rows]
        assert len(rows) > 1000


# optimal_alpha(symmetric_ring(10)) bit for bit.  The LP is degenerate
# and SMW ties on the ring are decided by these last bits, so recorded
# simulation replays depend on them: another solver or pivot order must
# fail here first.
RING10_ALPHA_HEX = [
    "0x1.733a62662e511p-4", "0x1.bff8d0cd04e44p-4", "0x1.733a62662e50dp-4",
    "0x1.bff8d0cd04de2p-4", "0x1.733a62662e55ap-4", "0x1.bff8d0cd04e12p-4",
    "0x1.733a62662e50ep-4", "0x1.bff8d0cd04e38p-4", "0x1.733a62662e508p-4",
    "0x1.bff8d0cd04e10p-4",
]


def test_optimal_alpha_ring10_bit_for_bit():
    alpha, res = optimal_alpha(symmetric_ring(10))
    assert [float(a).hex() for a in alpha] == RING10_ALPHA_HEX
    again = gamma(symmetric_ring(10), alpha)
    assert (res.gamma, res.critical_subsets, res.per_subset) == \
        (again.gamma, again.critical_subsets, again.per_subset)


# optimal_alpha(random_crp(n, seed=0)) and its simplex iteration count for
# the benchmark's base instances, recorded once the LP held only the
# closed drainable subsets (59, 141 and 126 rows)
CRP12_ALPHA_HEX = [
    "0x1.0624dd2f1a9fdp-10", "0x1.71b2969c5dc0ap-3", "0x1.08795ef76a40ap-4",
    "0x1.94769e9c1ea9dp-4", "0x1.0624dd2f1a9fdp-10",
    "0x1.0624dd2f1a9fdp-10", "0x1.0624dd2f1a9fdp-10",
    "0x1.5793916ee67cfp-2", "0x1.2022071552065p-9", "0x1.3ff202a0c3245p-2",
    "0x1.0624dd2f1a9fdp-10", "0x1.0624dd2f1a9fdp-10",
]
CRP15_ALPHA_HEX = [
    "0x1.e9abd61aa4d1bp-3", "0x1.5eaa442ba32e1p-4", "0x1.247f2d82e9b43p-3",
    "0x1.0624dd2f1a9ffp-10", "0x1.0624dd2f1a9ffp-10",
    "0x1.0624dd2f1a9ffp-10", "0x1.0624dd2f1a9ffp-10",
    "0x1.705792a645eedp-4", "0x1.0624dd2f1a9ffp-10", "0x1.a0d0278998625p-3",
    "0x1.ffa44d6c61096p-4", "0x1.32bf9b10fbd08p-8", "0x1.2a15075c709fep-4",
    "0x1.0624dd2f1a9ffp-10", "0x1.f63c3ea5f4b91p-6",
]
# the largest alpha LP: 4,667 rows over all drainable subsets, whose dense
# phase-1 tableau peaked at 338 MiB, and 127 over the closed ones
CRP16_ALPHA_HEX = [
    "0x1.0624dd2f1a9fcp-10", "0x1.1efd747027b52p-3", "0x1.35e26a3fc9e28p-3",
    "0x1.26bb8463fb8e6p-3", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.33bb4a070a6dap-2",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.8252a2af868a9p-3",
    "0x1.0624dd2f1a9fcp-10", "0x1.17f3b96ffc3c7p-6",
    "0x1.0624dd2f1a9fcp-10", "0x1.94b95dcca035fp-5",
]
CRP_ALPHA_PINS = {12: (65, CRP12_ALPHA_HEX), 15: (188, CRP15_ALPHA_HEX),
                  16: (165, CRP16_ALPHA_HEX)}


@pytest.mark.parametrize("n", sorted(CRP_ALPHA_PINS))
def test_optimal_alpha_random_crp_bit_for_bit(n, monkeypatch):
    import tracemalloc
    import smwsim.exponent as exponent
    iterations = []
    solve = exponent.solve_lp
    monkeypatch.setattr(exponent, "solve_lp", lambda lp: (
        lambda sol: iterations.append(sol.iterations) or sol)(solve(lp)))
    net = random_crp(n, seed=0)
    tracemalloc.start()
    try:
        alpha, _ = optimal_alpha(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hexes = [float(a).hex() for a in alpha]
    assert (iterations[0], hexes) == CRP_ALPHA_PINS[n]
    assert peak < 8 * 2**20   # 4.1 MiB at n = 16


def test_results_keep_subset_masks_bit_packed():
    net = random_crp(15, seed=0)
    alpha, res = optimal_alpha(net)
    (members, boundary, lam, _), kept_alpha = res._columns
    assert kept_alpha.tobytes() == alpha.tobytes()
    for mask, nodes in ((members, net.n_demand), (boundary, net.n_supply)):
        assert mask.dtype == np.uint8
        assert mask.shape == (math.ceil(nodes / 8), lam.size) == (2, 141)
    assert hexed(res.per_subset) == hexed(gamma_loop(net, alpha)[2])
    complete = build_network(3, 3, [(i, j) for i in range(3)
                                     for j in range(3)], np.ones((3, 3)) / 9)
    alpha, res = optimal_alpha(complete)
    assert res.is_infinite and res.per_subset == ()
    assert [(a.dtype, a.shape) for a in res._columns[0][:2]] == \
        [(np.uint8, (1, 0))] * 2


def exponent_calls(net):
    alpha = uniform_alpha(net.n_supply)
    return (lambda: gamma(net, alpha), lambda: optimal_alpha(net),
            lambda: most_likely_path(net, alpha))


def test_one_subset_table_per_call(monkeypatch):
    # one closed-subset enumeration per call, pooled or raising
    import smwsim.network as network
    builds = []
    closed = network.closed_subsets
    monkeypatch.setattr(network, "closed_subsets",
                        lambda net: builds.append(net) or closed(net))
    for net in (example1(), symmetric_ring(10)):
        drift = partial(min_drift_speed, net, uniform_alpha(net.n_supply),
                        net.phi)
        for call in exponent_calls(net) + (drift,):
            builds.clear()
            call()
            assert len(builds) == 1
    for call in exponent_calls(example1_crp_violated())[:2]:    # gamma, alpha*
        builds.clear()
        with pytest.raises(PoolingViolationError):
            call()
        assert len(builds) == 1


def test_pooling_check_raises_most_violated_subset():
    from test_network import unpooled_random
    # diagonal edges, slack per subset (0,) 1/4, (1,) 0, (2,) -1/4,
    # (1, 2) -1/4 exactly: the tie goes to (2,), first in table order
    tie = build_network(3, 3, [(i, i) for i in range(3)],
                        [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    nets = [unpooled_random(n, s) for n in range(3, 9) for s in range(20)]
    nets += [example1_crp_violated(), tie] + edge_nets()
    violated = 0
    for net in nets:
        report = validate_network(net)
        if report.crp_holds:
            gamma(net, uniform_alpha(net.n_supply))
            continue
        violated += 1
        J, slack = min(report.violating_subsets, key=lambda t: t[1])
        for call in exponent_calls(net):
            with pytest.raises(PoolingViolationError) as exc:
                call()
            assert (exc.value.subset, exc.value.slack.hex()) == (J, slack.hex())
    assert violated > 20
    with pytest.raises(PoolingViolationError) as exc:
        gamma(tie, uniform_alpha(3))
    assert (exc.value.subset, exc.value.slack) == ((2,), -0.25)


def gamma_loop(net, alpha, subsets=None):
    """(gamma, critical subsets) over every drainable subset, and the
    per-subset triples of the closed ones (no demand node outside the
    subset is served only on its boundary), from the reference loop (or
    the given subsets), each boundary mass a sequential sum()."""
    per = [(st, b, b * st.log_ratio)
           for st in subsets or drainable_subsets_loop(net)
           for b in [float(sum(alpha[i] for i in st.boundary))]]
    best = min(c for (_, _, c) in per)
    crit = tuple(sorted(st.members for (st, _, c) in per
                        if c <= best * (1 + 1e-9) + 1e-300))
    served = [set(net.supply_neighbors(j)) for j in range(net.n_demand)]
    return best, crit, [t for t in per if not any(
        served[j] <= set(t[0].boundary)
        for j in range(net.n_demand) if j not in t[0].members)]


def hexed(per):
    return [(st, b.hex(), c.hex()) for (st, b, c) in per]


def test_gamma_columns_equal_reference_loop():
    rng = np.random.default_rng(7)
    for n in range(3, 10):
        for seed in range(5):
            net = random_crp(n, seed=seed)
            alpha = rng.dirichlet(np.ones(n))
            res = gamma(net, alpha)
            best, crit, per = gamma_loop(net, alpha)
            assert res.gamma.hex() == best.hex()
            assert res.critical_subsets == crit
            assert hexed(res.per_subset) == hexed(per)


def panel_nets():
    return [random_crp(n, seed=s) for n in range(3, 17) for s in range(3)] \
        + [symmetric_ring(10), example1()]


def test_closed_rows_keep_gamma_and_path_bit_for_bit():
    # the reference reads every drainable subset from the lattice, which
    # test_drainable_subsets_equal_reference_loop ties to the plain loop
    rng = np.random.default_rng(21)
    for net in panel_nets():
        subsets, n = every_drainable_subset(net), net.n_supply
        for alpha in [uniform_alpha(n), optimal_alpha(net)[0],
                      *rng.dirichlet(np.ones(n), size=3)]:
            res = gamma(net, alpha)
            best, crit, per = gamma_loop(net, alpha, subsets)
            assert (res.gamma.hex(), res.critical_subsets) == \
                (best.hex(), crit)
            assert hexed(res.per_subset) == hexed(per)
            st = next(st for st in subsets if st.members == crit[0])
            mass = float(sum(alpha[i] for i in st.boundary))
            inside = np.isin(np.arange(net.n_demand), st.members)
            bnd = np.isin(np.arange(n), st.boundary)
            f = net.phi.copy()
            f[np.ix_(inside, ~bnd)] *= st.lambda_rate / st.mu_rate
            f[np.ix_(~inside, bnd)] /= st.lambda_rate / st.mu_rate
            path = most_likely_path(net, alpha)
            assert path.critical_subset == st.members
            assert path.f_star.tobytes() == f.tobytes()
            assert path.drain_time.hex() == \
                (mass / (st.lambda_rate - st.mu_rate)).hex()
            assert path.kl_rate.hex() == kl_rate(f, net.phi).hex()


def highs_alpha_lp(net, subsets):
    """scipy's HiGHS on the alpha LP over the given rows, eps_floor 1e-3."""
    from scipy.optimize import linprog
    n = net.n_supply
    a_ub = np.zeros((len(subsets), n + 1))
    a_ub[:, -1] = 1.0
    for r, st in enumerate(subsets):
        a_ub[r, list(st.boundary)] = -st.log_ratio
    ref = linprog(np.r_[np.zeros(n), -1.0], A_ub=a_ub,
                  b_ub=np.zeros(len(subsets)), A_eq=[[1.0] * n + [0.0]],
                  b_eq=[1.0], bounds=[(1e-3, None)] * n + [(None, None)],
                  method="highs")
    assert ref.status == 0
    return ref


def highs_gamma(net, subsets):
    """gamma* over the given rows from scipy's HiGHS, eps_floor 1e-3."""
    return -highs_alpha_lp(net, subsets).fun


def certify(net, alpha, y, eps_floor=1e-3):
    """Relative gap (U(y) - gamma(alpha)) / gamma(alpha) of the duality
    certificate: weights y >= 0 summing to 1 on drainable_subsets(net) give
    w_i = sum_J y_J log(lambda_J / mu_J) [i in B_J], and every alpha with
    entries >= eps_floor has t <= w . alpha <= U(y) = eps_floor sum(w) +
    (1 - n eps_floor) max(w).  So gamma(alpha) <= gamma* <= U(y), and a
    zero gap proves alpha optimal, whatever solver or rows produced it."""
    w = np.zeros(net.n_supply)
    for weight, st in zip(y, drainable_subsets(net), strict=True):
        w[list(st.boundary)] += weight * st.log_ratio
    bound = eps_floor * w.sum() + (1 - net.n_supply * eps_floor) * w.max()
    g = gamma(net, alpha).gamma
    return (bound - g) / g


def test_optimal_alpha_matches_highs_over_all_drainable_rows():
    for net in panel_nets():
        assert optimal_alpha(net, eps_floor=1e-3)[1].gamma == pytest.approx(
            highs_gamma(net, every_drainable_subset(net)), rel=0,
            abs=1e-12)


@pytest.mark.parametrize("n", [30, 40])
def test_optimal_alpha_past_twenty_nodes_matches_highs(n):
    # 1,227 to 5,150 closed drainable rows, over 2^30 or 2^40 subsets
    for seed in range(3):
        net = random_crp(n, seed=seed)
        res = optimal_alpha(net, eps_floor=1e-3)[1]
        rows = [st for st, _, _ in res.per_subset]
        assert len(rows) > 1000
        assert res.gamma == pytest.approx(highs_gamma(net, rows),
                                          rel=0, abs=1e-9)


def test_optimal_alpha_is_certified_by_lp_duality():
    # y from HiGHS' duals; the package's alpha is another solver's vertex
    nets = [example1(), symmetric_ring(10)] + [
        random_crp(n, seed=s) for n in (3, 4, 8, 12, 16, 30, 40)
        for s in range(3)]
    for net in nets:
        duals = highs_alpha_lp(net, drainable_subsets(net)).ineqlin.marginals
        y = np.maximum(-duals, 0.0)
        alpha = optimal_alpha(net, eps_floor=1e-3)[0]
        assert abs(certify(net, alpha, y / y.sum())) <= 1e-12


def test_rows_are_the_closed_drainable_subsets():
    # brute force: J is closed when every demand node served only on
    # N(J) is in J; a drainable J's closure is a row with J's boundary,
    # no more lambda and no less mu, one of them strictly when J is open
    nets = [random_crp(n, seed=s) for n in range(3, 9) for s in range(5)]
    nets += [net for net in sparse_nets() if validate_network(net).crp_holds]
    nets += [example1(), symmetric_ring(10)]
    for net in nets:
        rows = [st for st, _, _ in
                gamma(net, uniform_alpha(net.n_supply)).per_subset]
        by_members = {st.members: st for st in rows}
        closed = []
        for st in drainable_subsets_loop(net):
            hull = tuple(j for j in range(net.n_demand)
                         if neighborhood(net, [j])
                         <= neighborhood(net, st.members))
            if hull == st.members:
                closed.append(st)
                continue
            top = by_members[hull]
            assert top.boundary == st.boundary
            assert top.lambda_rate <= st.lambda_rate
            assert top.mu_rate >= st.mu_rate
            assert top.log_ratio < st.log_ratio
        assert rows == closed


def test_subset_table_columns_in_combinations_order():
    for m in range(2, 13):
        ring = [(j, j) for j in range(m)] + [((j + 1) % m, j) for j in range(m)]
        net = build_network(m, m, ring, np.ones((m, m)))
        _, nbrs, _ = subset_table(net)
        at, members = table_order(np.ones(nbrs.shape[1], dtype=bool), m)
        combos = [J for size in range(1, m)
                  for J in itertools.combinations(range(m), size)]
        # index code - 1, where bit j of the code marks demand node j
        assert (at + 1).tolist() == [sum(1 << j for j in J) for J in combos]
        assert mask_indices(members) == combos
        assert mask_indices(nbrs[:, at]) == [
            tuple(sorted(neighborhood(net, J))) for J in combos]


def closed_panel():
    """The nets of the subset panels with at most 12 demand nodes, pooled
    and not."""
    from test_network import unpooled_random
    nets = panel_nets() + edge_nets()
    nets += [unpooled_random(n, s) for n in range(3, 13) for s in range(3)]
    return [net for net in nets if net.n_demand <= 12]


def test_closed_subsets_are_the_lattice_closed_codes():
    for net in closed_panel():
        m = net.n_demand
        served = [sum(1 << i for i in net.supply_neighbors(j))
                  for j in range(m)]
        nbrs = [0] * (1 << m)
        for code in range(1, 1 << m):
            low = code & -code
            nbrs[code] = nbrs[code ^ low] | served[low.bit_length() - 1]
        closed = [all(code >> j & 1 or served[j] & ~nbrs[code]
                      for j in range(m)) for code in range(1, 1 << m)]
        # the strict codes in table order, then every demand node
        at, members = table_order(np.array(closed[:-1]), m)
        got, got_nbrs = closed_subsets(net)
        assert mask_indices(got) == mask_indices(members) + [tuple(range(m))]
        assert mask_indices(got_nbrs) == [tuple(sorted(neighborhood(net, J)))
                                          for J in mask_indices(got)]


def blocks(sizes, seed=0, heavy=1.0):
    """Fully connected square blocks of the given sizes; the rows of the
    first block carry ``heavy`` times their drawn demand."""
    starts = np.cumsum([0] + list(sizes)).tolist()
    n = starts[-1]
    phi = np.random.default_rng(seed).exponential(size=(n, n))
    phi[:sizes[0]] *= heavy
    return build_network(n, n, [(i, j) for a, b in zip(starts, starts[1:])
                                for i in range(a, b) for j in range(a, b)],
                         phi)


def test_block_nets_have_one_closed_set_per_union_of_blocks():
    rng = np.random.default_rng(23)
    for k in range(1, 9):
        sizes = rng.integers(1, 5, size=k).tolist()
        members, nbrs = closed_subsets(blocks(sizes, seed=k))
        assert members.shape[1] == 2 ** k - 1
        assert (members == nbrs).all()


def test_unpooled_twenty_node_net_validates_in_little_memory():
    # five blocks of four, the first overloaded: 3,783 of the 2^20 strict
    # subsets violate pooling, 15 of the 30 strict closed ones among them
    import tracemalloc
    from test_network import hall_listing
    net = blocks([4] * 5, heavy=4.0)
    tracemalloc.start()
    try:
        rep = validate_network(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20   # 0.06 MiB; the 2^20 lattice took 69 MiB
    listed = [J for J, _ in rep.violating_subsets]
    assert len(listed) == 15 and listed == hall_listing(net, listed, tuple)
    least = min(rep.violating_subsets, key=lambda v: v[1])
    assert least[0] == (0, 1, 2, 3)
    with pytest.raises(PoolingViolationError) as exc:
        gamma(net, uniform_alpha(20))
    assert (exc.value.subset, exc.value.slack) == least


def test_closed_subset_cap_counts_closed_sets(monkeypatch):
    import smwsim.network as network
    net = blocks([2, 3, 1])   # 7 nonempty closed subsets
    monkeypatch.setattr(network, "CLOSED_CAP", 7)
    assert closed_subsets(net)[0].shape[1] == 7
    monkeypatch.setattr(network, "CLOSED_CAP", 6)
    with pytest.raises(SubsetCapError, match="7 closed demand subsets"):
        closed_subsets(net)


def test_hall_gap_equals_the_lattice_bit_for_bit():
    nets = closed_panel() + [net for net in panel_nets() if net.n_demand > 12]
    for net in nets:
        slack = subset_table(net)[0]
        rep = validate_network(net)
        assert rep.hall_gap.hex() == float(slack.min(initial=np.inf)).hex()
        assert rep.crp_holds == bool(slack.min(initial=1.0) > 0)
    assert any(not validate_network(net).crp_holds for net in nets)


def test_complement_check_catches_a_full_neighborhood_violation():
    # demand 1 has no rate, so {0} = {1}^c reaches every supply node with
    # slack 1 - 1 = 0; its closure is every demand node, and the one strict
    # closed subset, {1}, has slack 1/2
    net = Network(2, 2, frozenset({(0, 0), (1, 0), (1, 1)}),
                  np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert mask_indices(closed_subsets(net)[0]) == [(1,), (0, 1)]
    rep = validate_network(net)
    assert (rep.hall_gap, rep.crp_holds) == (0.0, False)
    assert rep.violating_subsets == [((0,), 0.0)]
    for call in exponent_calls(net):
        with pytest.raises(PoolingViolationError) as exc:
            call()
        assert (exc.value.subset, exc.value.slack) == ((0,), 0.0)


def test_violations_past_the_lattice_are_the_closed_ones():
    # three blocks of seven with block 0's demand raised: pooling fails on
    # unions of blocks, each slack a sequential sum in node order
    net = blocks([7, 7, 7], seed=5, heavy=4.0)
    row, col = net.row_rates().tolist(), net.col_rates().tolist()
    expected = []
    for size in (1, 2):
        for union in itertools.combinations(range(3), size):
            J = tuple(j for b in union for j in range(7 * b, 7 * b + 7))
            slack = sum(col[i] for i in J) - sum(row[j] for j in J)
            if slack <= 0:
                expected.append((J, slack))
    assert expected
    rep = validate_network(net)
    assert not rep.crp_holds
    assert [(J, s.hex()) for J, s in rep.violating_subsets] == \
        [(J, s.hex()) for J, s in expected]
    least = min(expected, key=lambda t: t[1])
    with pytest.raises(PoolingViolationError) as exc:
        optimal_alpha(net)
    assert (exc.value.subset, exc.value.slack) == least


def test_example1_gamma():
    net = example1()
    res = gamma(net, [0.5, 0.5])
    assert res.gamma == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert res.critical_subsets == ((0,),)
    res = gamma(net, [1 - 1e-3, 1e-3])
    assert res.gamma == pytest.approx(0.999 * LOG2, abs=1e-12)


def test_boundary_mass_is_the_sequential_sum():
    rng = np.random.default_rng(0)
    for seed in range(5):
        net = random_crp(6, seed=seed)
        for alpha in rng.dirichlet(np.ones(net.n_supply), size=5):
            for st, b, c in gamma(net, alpha).per_subset:
                ref = float(sum(alpha[i] for i in st.boundary))
                assert (b.hex(), c.hex()) == (ref.hex(),
                                              (ref * st.log_ratio).hex())


def test_gamma_requires_pooling():
    with pytest.raises(PoolingViolationError) as exc:
        gamma(example1_crp_violated(), [0.5, 0.5])
    assert exc.value.subset == (0,)


def test_optimal_alpha_example1():
    alpha, res = optimal_alpha(example1(), eps_floor=1e-3)
    assert alpha == pytest.approx([0.999, 0.001], abs=1e-9)
    assert res.gamma == pytest.approx(0.999 * LOG2, abs=1e-9)


def test_optimal_alpha_symmetric_ring():
    # cyclically symmetric instance: the uniform point must be optimal
    from smwsim.instances import symmetric_ring
    net = symmetric_ring(4)
    alpha, res = optimal_alpha(net, eps_floor=1e-3)
    assert res.gamma == pytest.approx(gamma(net, uniform_alpha(4)).gamma,
                                      abs=1e-9)


def test_eps_floor_range_enforced():
    with pytest.raises(ValueError):
        optimal_alpha(example1(), eps_floor=0.6)


def test_gamma_matches_independent_oracle():
    rng = np.random.default_rng(3)
    for seed in range(8):
        net = random_crp(4, seed=seed)
        alpha = rng.dirichlet(np.ones(4))
        alpha = np.clip(alpha, 1e-4, None)
        alpha /= alpha.sum()
        assert gamma(net, alpha).gamma == pytest.approx(
            gamma_oracle(net, alpha), rel=1e-12)


def test_gamma_concavity():
    rng = np.random.default_rng(4)
    net = random_crp(4, seed=1)
    for _ in range(30):
        a1 = rng.dirichlet(np.ones(4)) * 0.998 + 0.0005
        a2 = rng.dirichlet(np.ones(4)) * 0.998 + 0.0005
        a1, a2 = a1 / a1.sum(), a2 / a2.sum()
        lam = rng.uniform()
        mix = lam * a1 + (1 - lam) * a2
        assert gamma(net, mix).gamma >= \
            lam * gamma(net, a1).gamma + (1 - lam) * gamma(net, a2).gamma - 1e-12


def test_kl_rate():
    net = example1()
    assert kl_rate(net.phi, net.phi) == 0.0
    assert math.isinf(kl_rate([[-0.1, 0.6], [0.25, 0.25]], net.phi))
    assert math.isinf(kl_rate([[0.5, 0.5], [0.0, 0.0]],
                              [[0.0, 0.5], [0.25, 0.25]]))
    path = most_likely_path(net, [0.5, 0.5])
    assert path.kl_rate == pytest.approx(LOG2 / 8, abs=1e-12)


@pytest.mark.parametrize("alpha", [[math.nan, 1.0], [1.0, math.nan],
                                   [math.nan, math.nan]])
def test_check_alpha_rejects_nan(alpha):
    with pytest.raises(ValueError, match="alpha must sum to 1"):
        check_alpha(alpha, 2)


NAN_F = [[math.nan, 0.5], [0.25, 0.25]]


def test_kl_rate_of_a_nan_matrix_is_inf():
    # kl_rate's contract: +inf unless f is a distribution
    assert kl_rate(NAN_F, example1().phi) == math.inf


def test_min_drift_speed_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="f must be"):
        min_drift_speed(example1(), [0.5, 0.5], NAN_F)


def test_lyapunov_rejects_a_nan_point():
    with pytest.raises(ValueError, match="point on the simplex"):
        lyapunov([0.5, 0.5], [math.nan, 1.0])


def test_most_likely_path_example1():
    net = example1()
    path = most_likely_path(net, [0.5, 0.5])
    assert np.allclose(path.f_star, [[3 / 8, 1 / 4], [1 / 8, 1 / 4]])
    assert path.f_star.sum() == pytest.approx(1.0, abs=1e-12)
    assert path.drain_time == pytest.approx(4.0)
    assert path.drain_time * path.kl_rate == pytest.approx(0.5 * LOG2, abs=1e-12)


def test_lyapunov_values():
    assert lyapunov([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert lyapunov([0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0)
    assert lyapunov([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        lyapunov([0.5, 0.5], [0.9, 0.2])


def test_lyapunov_scale_invariance_and_subadditivity():
    rng = np.random.default_rng(5)
    from smwsim import lyapunov as L
    for _ in range(200):
        n = 3
        alpha = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        alpha /= alpha.sum()
        dx = rng.normal(size=n) * 0.01
        dx -= dx.mean()
        dx2 = rng.normal(size=n) * 0.01
        dx2 -= dx2.mean()
        c = rng.uniform(0.1, 1.0)
        if np.all(alpha + dx > 0) and np.all(alpha + c * dx > 0):
            assert L(alpha, alpha + c * dx) == pytest.approx(
                c * L(alpha, alpha + dx), abs=1e-12)
        if np.all(alpha + dx + dx2 > 0) and np.all(alpha + dx2 > 0) \
                and np.all(alpha + dx > 0):
            assert L(alpha, alpha + dx + dx2) <= \
                L(alpha, alpha + dx) + L(alpha, alpha + dx2) + 1e-12


def test_lyapunov_lipschitz():
    rng = np.random.default_rng(6)
    from smwsim import lyapunov as L
    for _ in range(200):
        n = 3
        alpha = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        alpha /= alpha.sum()
        x1 = rng.dirichlet(np.ones(n))
        x2 = rng.dirichlet(np.ones(n))
        bound = np.max(np.abs(x1 - x2)) / alpha.min()
        assert abs(L(alpha, x1) - L(alpha, x2)) <= bound + 1e-12


def test_min_drift_speed_example1():
    net = example1()
    path = most_likely_path(net, [0.5, 0.5])
    v = min_drift_speed(net, [0.5, 0.5], path.f_star)
    assert v == pytest.approx(0.25, abs=1e-9)
    assert path.kl_rate / v == pytest.approx(0.5 * LOG2, abs=1e-6)
    # typical demand can be absorbed: non-positive drift speed
    assert min_drift_speed(net, [0.5, 0.5], net.phi) <= 1e-9


def test_min_drift_speed_fully_compatible_mass():
    # all mass on a demand node whose neighborhood is every supply node
    net = example1()
    f = np.array([[0.0, 0.0], [0.5, 0.5]])  # origin 1 has full neighborhood
    f = f / f.sum()
    assert min_drift_speed(net, [0.5, 0.5], f) <= 1e-9


def test_kl_and_speed_identities_on_random_instances():
    for seed in range(6):
        net = random_crp(4, seed=seed)
        for alpha in (uniform_alpha(4), optimal_alpha(net)[0]):
            res = gamma(net, alpha)
            path = most_likely_path(net, alpha)
            assert path.drain_time * path.kl_rate == pytest.approx(
                res.gamma, abs=1e-9)
            v = min_drift_speed(net, alpha, path.f_star)
            assert path.kl_rate / v == pytest.approx(res.gamma, abs=1e-6)


def test_rate_path_reads_the_result_columns():
    # optimal_alpha's own result gives the path that gamma gives at alpha*
    for net in [random_crp(n, seed=s) for n in (3, 6, 9) for s in range(3)] \
            + [example1(), symmetric_ring(10)]:
        alpha, res = optimal_alpha(net)
        path, ref = res.rate_path(net), most_likely_path(net, alpha)
        assert path.critical_subset == ref.critical_subset
        assert path.f_star.tobytes() == ref.f_star.tobytes()
        assert (path.drain_time.hex(), path.kl_rate.hex()) == \
            (ref.drain_time.hex(), ref.kl_rate.hex())
    complete = build_network(3, 3, [(i, j) for i in range(3)
                                    for j in range(3)], np.ones((3, 3)))
    with pytest.raises(ValueError, match="most likely path undefined"):
        gamma(complete, uniform_alpha(3)).rate_path(complete)
    with pytest.raises(ValueError, match="most likely path undefined"):
        most_likely_path(complete, uniform_alpha(3))


def drift_lp(net, alpha, f):
    """The min-drift speed as an LP: one distribution d over N(j) per
    demand node j; minimize t subject to (outflow_i - inflow_i) / alpha_i
    <= t, outflow_i the mass that d assigns to supply node i."""
    ei, ej = np.array(sorted(net.edges)).T
    nv = ei.size + 1               # d variables then t
    d = np.arange(ei.size)
    a_eq = np.zeros((net.n_demand, nv))
    a_eq[ej, d] = 1.0
    a_ub = np.zeros((net.n_supply, nv))
    a_ub[:, -1] = -1.0
    a_ub[ei, d] = f.sum(axis=1)[ej] / alpha[ei]
    lower = np.zeros(nv)
    lower[-1] = -np.inf
    c = np.zeros(nv)
    c[-1] = -1.0                   # maximize -t = minimize t
    sol = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=f.sum(axis=0) / alpha,
                                 a_eq=a_eq, b_eq=np.ones(net.n_demand),
                                 lower=lower))
    assert sol.status == "optimal"
    return float(sol.x[-1])


def drift_brute(net, alpha, f):
    """max over every nonempty demand subset J of
    (f(J) - inflow(N(J))) / alpha(N(J)), as plain loops."""
    m, n = net.n_demand, net.n_supply
    best = -math.inf
    for size in range(1, m + 1):
        for J in itertools.combinations(range(m), size):
            nbrs = neighborhood(net, J)
            mass = sum(f[j][k] for j in J for k in range(n))
            inflow = sum(f[j][i] for j in range(m) for i in nbrs)
            best = max(best, (mass - inflow) / sum(alpha[i] for i in nbrs))
    return best


def drift_panel():
    """(net, alpha, f): uniform, optimal and Dirichlet alpha; f = phi, the
    most likely path, a random f (mass off phi's support where phi has
    zeros) and a random f with one all-zero row."""
    rng = np.random.default_rng(22)
    nets = [build_network(1, 1, [(0, 0)], [[1.0]])]   # random_crp needs n >= 2
    nets += [random_crp(n, seed=s) for n in range(2, 11) for s in range(5)]
    nets += [example1(), symmetric_ring(10)]
    for net in nets:
        n, m = net.n_supply, net.n_demand
        for alpha in (uniform_alpha(n), optimal_alpha(net)[0],
                      rng.dirichlet(np.ones(n))):
            spread = rng.exponential(size=(m, n))
            holed = rng.exponential(size=(m, n))
            holed[rng.integers(m)] = 0.0
            fs = [net.phi, spread / spread.sum()]
            if m > 1:
                fs.append(holed / holed.sum())
            if not gamma(net, alpha).is_infinite:
                fs.append(most_likely_path(net, alpha).f_star)
            for f in fs:
                yield net, alpha, f


def test_min_drift_speed_matches_lp_and_brute_force():
    gaps = []
    for net, alpha, f in drift_panel():
        v = min_drift_speed(net, alpha, f)
        gaps.append(abs(v - drift_lp(net, alpha, f)))
        if net.n_demand <= 8:
            gaps.append(abs(v - drift_brute(net, alpha, f)))
    assert len(gaps) > 1000 and max(gaps) <= 1e-12


def test_min_drift_speed_enumerates_closed_sets_below_the_cap():
    # a complete net has one nonempty closed subset, whatever its size
    for n in (21, 22):
        net = build_network(n, n, [(i, j) for i in range(n)
                                   for j in range(n)], np.ones((n, n)))
        assert closed_subsets(net)[0].shape == (n, 1)
        assert abs(min_drift_speed(net, uniform_alpha(n), net.phi)) < 1e-15
        assert gamma(net, uniform_alpha(n)).is_infinite
    with pytest.raises(SubsetCapError, match="closed demand subsets exceed"):
        min_drift_speed(symmetric_ring(30), uniform_alpha(30),
                        symmetric_ring(30).phi)


def sequential_sum(terms, size):
    """Per column, each (mask, value) term's value added where its mask is
    set, one np.add per term, in order: the sequential sum."""
    out = np.zeros(size)
    for mask, value in terms:
        np.add(out, value, out=out, where=mask)
    return out


def drainable_loop(net, members, nbrs):
    """lambda and mu with one sequential masked add per pair: every (j, k)
    pair row-major for lambda, the nontrivial ones for mu."""
    size, m, n = members.shape[1], net.n_demand, net.n_supply
    pairs = np.argwhere((net.phi > 0) & ~net.adjacency).tolist()
    mu = sequential_sum(((members[j] & ~nbrs[k], net.phi[j, k])
                         for j, k in pairs), size)
    lam = sequential_sum(((~members[j] & nbrs[k], net.phi[j, k])
                          for j in range(m) for k in range(n)), size)
    return lam, mu


def test_masked_sum_equals_the_sequential_adds():
    def same(masks, values):
        ref = sequential_sum(zip(masks, values), masks.shape[1])
        assert masked_sum(masks, values).tobytes() == ref.tobytes()

    nets = [random_crp(n, seed=s) for n in range(3, 17) for s in range(3)]
    for net in nets + [symmetric_ring(10), example1()]:
        alpha, res = optimal_alpha(net)
        _, members, nbrs = hall_subsets(net, net.phi)
        for masks, values in ((nbrs, alpha), (nbrs, net.col_rates()),
                              (members, net.row_rates())):
            same(masks, values)
            same(masks[:, :1], values)   # a lone column
        if not res.is_infinite:
            # the zero-padded unpacked rows per_subset passes, and the
            # one column rate_path passes
            padded = np.unpackbits(res._columns[0][1], axis=0).view(bool)
            same(padded, alpha)
            same(padded[:net.n_supply, -1:], alpha)
    for n in (12, 13):   # the lattice spans more than one block
        net = random_crp(n, seed=0)
        masks = subset_table(net)[1]
        assert masks.shape[1] > SUM_BLOCK // (n + 1) + 1
        same(masks, net.col_rates())
    rng = np.random.default_rng(0)
    for terms in (0, 1, 9, 40):
        same(rng.random((terms, 3)) < 0.5, rng.random(terms))


def relabelled(net, seed):
    perm = np.random.default_rng(seed).permutation(net.n_supply)
    phi = np.empty_like(net.phi)
    phi[np.ix_(perm, perm)] = net.phi
    return build_network(net.n_supply, net.n_demand,
                         [(perm[i], perm[j]) for (i, j) in net.edges], phi)


def test_drainable_rates_equal_sequential_masked_sums():
    nets = [random_crp(n, seed=s) for n in range(2, 17) for s in range(3)]
    nets += [symmetric_ring(10), example1()]
    nets += [relabelled(random_crp(n, seed=0), seed)
             for n in (12, 14, 15) for seed in (1, 31)]
    complete = build_network(4, 4, [(i, j) for i in range(4)
                                    for j in range(4)], np.ones((4, 4)))
    for net in nets + [complete]:
        _, nbrs, drains = subset_table(net)
        # every strict subset on the complete net, which drains none, so
        # _drainable keeps none of its columns
        at, members = table_order(drains if net is not complete
                                  else np.ones_like(drains), net.n_demand)
        nbrs = nbrs.take(at, axis=1)
        assert members.shape[1] > 0
        # a lone column too: numpy sums one column of many rows pairwise
        for cols in (slice(None), slice(0, 1)):
            got = _drainable(net, members[:, cols], nbrs[:, cols])[2:]
            lam, mu = drainable_loop(net, members[:, cols], nbrs[:, cols])
            ref = lam[mu > 0], mu[mu > 0]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    assert not drainable_subsets(complete)
