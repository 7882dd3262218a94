"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import smwsim.sim as sim
from smwsim import SmwPolicy, optimal_alpha, vanilla_policy
from smwsim.chain import StateCapError, stationary_drop_probability
from smwsim.instances import example1, random_crp

import checks
import spans
import workloads


def _span(id, name, parent, start, end, dispatch_s=0.0, dispatch_calls=0):
    s = spans.Span(id, name, parent, start, end)
    s.dispatch_s, s.dispatch_calls = dispatch_s, dispatch_calls
    return s


def test_self_times_on_hand_built_tree():
    tree = [
        _span(0, "bench.round", None, 0.0, 10.0),
        _span(1, "sim.run_jump_chain", 0, 1.0, 5.0, dispatch_s=1.0,
              dispatch_calls=7),
        _span(2, "lp.solve_lp", 1, 2.0, 3.0),
        _span(3, "chain.build_chain", 0, 6.0, 9.0, dispatch_s=0.5,
              dispatch_calls=2),
    ]
    self_s = spans.self_times(tree)
    assert self_s == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5})

    m = spans.layer_metrics(tree)
    assert m["trace.uncovered_s"] == pytest.approx(3.0)
    assert m["sim.run_s"] == pytest.approx(4.0)
    assert m["sim.self_s"] == pytest.approx(2.0)
    assert m["sim.steps"] == 7
    assert m["policies.dispatch_s"] == pytest.approx(1.5)
    assert m["policies.dispatch_calls"] == 9
    assert m["lp.solve_lp_s"] == pytest.approx(1.0)
    assert m["lp.solve_lp_calls"] == 1
    assert m["chain.build_s"] == pytest.approx(2.5)


@pytest.mark.parametrize("K", [2, 3, 10, 15, 20, 25])
def test_birth_death_reference_matches_oracle_at_small_K(K):
    net = example1()
    p = stationary_drop_probability(net, vanilla_policy(net), K)
    start = int(sim.proportional_init([0.5, 0.5], K)[0])
    ref = 10.0 ** checks.birth_death_log10_drop(net.phi, net.edges, K, start)
    assert p.drop_probability == pytest.approx(ref, rel=1e-10)


def test_birth_death_reference_decays_at_the_closed_form_rate():
    # vanilla MaxWeight on example1 has exponent ln(2)/2
    net = example1()
    logp = {K: checks.birth_death_log10_drop(net.phi, net.edges, K, K // 2)
            * math.log(10.0) for K in (400, 800)}
    assert (logp[400] - logp[800]) / 400 == pytest.approx(math.log(2) / 2,
                                                          rel=1e-3)


def test_failed_frac_counts_a_state_cap_error():
    net = example1()
    pol = vanilla_policy(net)
    tally = workloads.Tally()

    class ThreeSolves:
        def cells(self, state):
            return [workloads.op("K5", stationary_drop_probability, net, pol, 5),
                    workloads.op("K6-capped", stationary_drop_probability,
                                 net, pol, 6, cap=3),
                    workloads.op("K7", stationary_drop_probability, net, pol, 7)]

    out = workloads.run_round(ThreeSolves(), None, tally)
    assert tally.attempted == 3 and tally.failed == 1
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert [res is None for _, res, _ in out] == [False, True, False]
    assert tally.failures[0]["op"] == "K6-capped"
    assert tally.failures[0]["error"].startswith(StateCapError.__name__)


def test_highs_gamma_matches_optimal_alpha():
    net = random_crp(6, seed=3)
    alpha, res = optimal_alpha(net)
    subsets = [st for st, _, _ in res.per_subset]
    assert checks.highs_gamma(net, subsets, 1e-3) == pytest.approx(
        res.gamma, abs=1e-9)


def test_relabel_is_an_isomorphism():
    net = random_crp(5, seed=2)
    other = workloads.relabel(net, np.random.default_rng(7))
    assert optimal_alpha(other)[1].gamma == pytest.approx(
        optimal_alpha(net)[1].gamma, rel=1e-12)
    assert sorted(other.phi.ravel()) == pytest.approx(sorted(net.phi.ravel()))


def test_tracing_counts_dispatch_and_restores_patches():
    net = example1()
    pol = SmwPolicy(net, [0.7, 0.3])
    plain = sim.run_jump_chain(net, pol, 6, 500, seed=4)
    tracer = spans.Tracer()
    with tracer.installed([pol]), tracer.span("bench.round"):
        traced = sim.run_jump_chain(net, pol, 6, 500, seed=4)
    assert "dispatch" not in pol.__dict__
    assert sim.run_jump_chain.__module__ == "smwsim.sim"
    assert (traced.arrivals, traced.drops) == (plain.arrivals, plain.drops)
    m = spans.layer_metrics(tracer.spans)
    assert m["sim.steps"] == m["policies.dispatch_calls"] == 500
    assert m["policies.drops_no_supply"] + round(
        m["policies.served_frac"] * 500) == 500
    assert [s.name for s in tracer.spans] == ["bench.round",
                                              "sim.run_jump_chain"]
