import math
from math import comb

import numpy as np
import pytest

import smwsim.policies as policies_module
import smwsim.tuner as tuner_module
from smwsim import (
    SmwPolicy,
    TimedConfig,
    TuneConfig,
    build_network,
    run_jump_chain,
    run_timed,
    tune,
)
from smwsim.instances import example1, random_crp, symmetric_ring
from smwsim.sim import DEFAULT_JUMP_WARMUP_FRAC, draw_events


@pytest.fixture(scope="module")
def result():
    net = example1()
    cfg = TuneConfig(budget=60, population=20, steps=4000, K=8, seed=7)
    return tune(net, cfg)


def test_tune_returns_feasible_alpha(result):
    assert result.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(result.alpha >= 1e-3 - 1e-12)
    assert result.beta is None


def test_tune_candidates_respect_floor(result):
    for (_, _, alpha, beta, _, _) in result.trace:
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(alpha >= 1e-3 - 1e-12)


def test_tune_best_matches_trace(result):
    means = [mean for (_, _, _, _, mean, _) in result.trace
             if np.isfinite(mean)]
    assert result.best_objective == pytest.approx(min(means))


def test_tune_reproducible():
    net = example1()
    cfg = TuneConfig(budget=40, population=20, steps=2000, K=5, seed=12)
    a = tune(net, cfg)
    b = tune(net, cfg)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.best_objective == b.best_objective
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert ra[0] == rb[0] and ra[1] == rb[1]
        assert np.array_equal(ra[2], rb[2])
        assert ra[4] == rb[4]


def test_tune_prefers_heavy_first_node(result):
    # the well-known two-node instance: drops vanish as alpha_0 -> 1,
    # so even a short search should tilt well past uniform
    assert result.alpha[0] > 0.6


def test_tune_budget_validation():
    with pytest.raises(ValueError, match="population"):
        TuneConfig(budget=5, population=20)
    # a remainder was dropped: budget 39 ran 20 evaluations
    for budget in (39, 0, -20):
        with pytest.raises(ValueError, match="multiple of population"):
            TuneConfig(budget=budget, population=20)
    with pytest.raises(ValueError, match="replication"):
        TuneConfig(replications=0)
    with pytest.raises(ValueError, match="population"):
        TuneConfig(population=0)


def replication_seeds(cfg):
    """Per-iteration replication seeds, spawned as the tuner spawns them."""
    kids = np.random.SeedSequence(cfg.seed).spawn(
        cfg.budget // cfg.population * cfg.replications)
    seeds = [int(s.generate_state(1)[0]) for s in kids]
    r = cfg.replications
    return [seeds[i:i + r] for i in range(0, len(seeds), r)]


def assert_trace_matches(res, cfg, run):
    """Every trace mean equals the mean of run(alpha, beta, seed) over the
    row's replication seeds."""
    seeds = replication_seeds(cfg)
    assert len(res.trace) == cfg.budget // cfg.population * cfg.population
    for it, _, alpha, beta, mean, _ in res.trace:
        direct = [run(alpha, beta, s) for s in seeds[it]]
        assert mean == float(np.nanmean(np.array(direct)))


def test_trace_stderr_is_the_sample_standard_error():
    net = example1()
    cfg = TuneConfig(budget=20, population=20, replications=2, steps=500,
                     K=4, seed=1)
    res = tune(net, cfg)
    seeds = replication_seeds(cfg)
    rows = {}
    for it, _, alpha, _, mean, stderr in res.trace:
        direct = [run_jump_chain(net, SmwPolicy(net, alpha), cfg.K, cfg.steps,
                                 seed=s).drop_fraction for s in seeds[it]]
        assert stderr == pytest.approx(np.std(direct, ddof=1) / np.sqrt(2),
                                       rel=1e-12, abs=1e-15)
        rows[tuple(round(d, 4) for d in sorted(direct))] = stderr
    assert rows[(0.0867, 0.0933)] == pytest.approx(0.00333, abs=5e-6)


def test_tune_beta_scores_the_pickup_policy():
    net = example1(with_times=True)
    cfg = TuneConfig(budget=40, population=20, replications=2, steps=1000,
                     K=5, seed=3)
    res = tune(net, cfg, tune_beta=True)
    assert res.beta is not None and res.beta > 0
    assert_trace_matches(res, cfg, lambda a, b, s: run_jump_chain(
        net, SmwPolicy(net, a, b), cfg.K, cfg.steps,
        seed=s).drop_fraction)


def test_tune_beta_needs_pickup_times():
    with pytest.raises(ValueError, match="pickup time"):
        tune(example1(), TuneConfig(budget=20, steps=100), tune_beta=True)


def test_tune_without_a_finite_objective_raises_and_warns_nothing():
    # 0.01 expected arrivals per run: every run's drop fraction is nan
    cfg = TuneConfig(budget=20, timed=TimedConfig(0.001, 10.0, 4))
    with pytest.raises(RuntimeError, match="no candidate produced a finite"):
        tune(example1(with_times=True), cfg)


@pytest.mark.parametrize("frac", [-0.5, math.nan])
def test_timed_tune_rejects_warmup_outside_the_horizon(frac):
    cfg = TuneConfig(budget=20, timed=TimedConfig(1.0, 100.0, 4,
                                                  warmup_frac=frac))
    with pytest.raises(ValueError, match="warmup"):
        tune(symmetric_ring(4, with_times=True), cfg)


def test_timed_tune_runs_timed_with_pickup():
    net = symmetric_ring(4, with_times=True)
    cfg = TuneConfig(budget=40, population=20, seed=5,
                     timed=TimedConfig(1.0, 400.0, 8))
    res = tune(net, cfg)
    again = tune(net, cfg)
    assert [(r[0], r[1], r[2].tolist(), r[4]) for r in res.trace] == \
        [(r[0], r[1], r[2].tolist(), r[4]) for r in again.trace]
    assert_trace_matches(res, cfg, lambda a, b, s: run_timed(
        net, SmwPolicy(net, a), cfg.timed, with_pickup=True,
        seed=s).drop_fraction)


def steady(net, cfg, policy=lambda net, a, b: SmwPolicy(net, a)):
    """Direct steady-state run_jump_chain, the reference of the table walk."""
    return lambda a, b, s: run_jump_chain(
        net, policy(net, a, b), cfg.K, cfg.steps, seed=s).drop_fraction


def _table_cases():
    cfg = TuneConfig(budget=40, population=20, steps=2000, K=5, seed=4)
    nets = [("example1", example1())] + [
        (f"crp3-{k}", random_crp(3, seed=k)) for k in range(3)]
    for name, net in nets:
        yield pytest.param(net, cfg, False, steady(net, cfg), id=name)
    cfg2 = TuneConfig(budget=40, population=20, replications=2, steps=1500,
                      K=7, seed=5)
    net = example1()
    yield pytest.param(net, cfg2, False, steady(net, cfg2), id="replications")
    net = example1(with_times=True)
    yield pytest.param(net, cfg2, True, steady(
        net, cfg2, lambda net, a, b: SmwPolicy(net, a, b)), id="beta")
    net = example1()
    # blocks of k events with some left over: k = 2 at K=5 and 2000 steps,
    # 3 at K=8 and 6017, 1 at K=5 and 300
    for steps, K in [(2003, 5), (2013, 5), (6017, 8), (300, 5)]:
        cfg4 = TuneConfig(budget=40, population=20, steps=steps, K=K, seed=3)
        yield pytest.param(net, cfg4, False, steady(net, cfg4),
                           id=f"steps{steps}-K{K}")


@pytest.mark.parametrize("net, cfg, tune_beta, run", _table_cases())
def test_table_walk_equals_run_jump_chain(monkeypatch, net, cfg, tune_beta,
                                          run):
    def refuse(*args, **kwargs):
        raise AssertionError("a small chain ran per step")
    monkeypatch.setattr(tuner_module, "run_jump_chain", refuse)
    assert_trace_matches(tune(net, cfg, tune_beta=tune_beta), cfg, run)


@pytest.mark.parametrize("net, cfg, tune_beta, run", _table_cases())
def test_composed_tables_hold_no_more_entries_than_steps(monkeypatch, net, cfg,
                                                         tune_beta, run):
    built, real = [], tuner_module._tables

    def spy(*args):     # counts tables, one per key, not calls
        built.extend(real(*args))
        return built[-len(args[1]):]
    monkeypatch.setattr(tuner_module, "_tables", spy)
    res = tune(net, cfg, tune_beta=tune_beta)
    assert len(built) == res.runs["tables"] > 0
    assert all(len(table) == len(drop) <= cfg.steps
               for _, _, table, drop in built)


@pytest.mark.parametrize("K, steps, k", [
    (10, 15000, 3), (10, 6336, 3), (10, 6335, 2), (10, 44, 1), (5, 2000, 2),
    (5, 300, 1), (8, 6017, 3), (3, 301, 2)])
def test_blocks_are_the_longest_whose_table_fits(K, steps, k):
    # the largest k with states * phi.size^k * k^2 <= steps
    net = example1()
    space = tuner_module.StateSpace.enumerate(2, K)
    srcs = np.array([[SmwPolicy(net, alpha).dispatch_table(space.states, j)
                      [0][0] for j in range(net.n_demand)]
                     for alpha in ([0.7, 0.3], [0.2, 0.8])])
    built = tuner_module._tables(net, srcs, space, steps)
    assert built == [tuner_module._tables(net, srcs[i:i + 1], space, steps)[0]
                     for i in range(2)]     # each key's own table
    for got, width, table, drop in built:
        assert got == k and width == 4 ** k + 4 * (k > 1)
        assert len(table) == len(drop) == (K + 1) * width <= steps


@pytest.mark.parametrize("steps, calls", [(44, 0), (43, 40)])
def test_table_walk_needs_no_more_entries_than_steps(monkeypatch, steps,
                                                     calls):
    net = example1()
    assert comb(10 + 1, 1) * net.phi.size == 44     # K=10: 11 states x 4
    made, enumerated = [], []
    real = tuner_module.StateSpace.enumerate

    def counting(*args, **kwargs):
        made.append(args)
        return run_jump_chain(*args, **kwargs)
    monkeypatch.setattr(tuner_module, "run_jump_chain", counting)
    monkeypatch.setattr(tuner_module.StateSpace, "enumerate",
                        lambda *args: enumerated.append(args) or real(*args))
    cfg = TuneConfig(budget=20, population=20, replications=2, steps=steps,
                     K=10, seed=6)
    res = tune(net, cfg)
    assert len(made) == calls       # once per (candidate, seed) at 43
    # walk or not is decided once per call, on one state space at most
    assert enumerated == ([] if calls else [(2, 10)])
    assert_trace_matches(res, cfg, steady(net, cfg))


@pytest.mark.parametrize("init", [
    [4, 6, 0], [10], [-0.5, 10.5], [math.nan, 10], "proportional"])
def test_malformed_states_fail_alike_in_simulators_and_tuner(init):
    net = example1(with_times=True)
    pol = SmwPolicy(net, [0.5, 0.5])
    errors = []
    for run in (lambda: run_jump_chain(net, pol, 10, 2000, init=init),
                lambda: run_timed(net, pol, TimedConfig(1.0, 100.0, 10),
                                  init=init)):
        with pytest.raises(ValueError, match="2 nonnegative integers") as exc:
            run()
        errors.append(str(exc.value))
    assert len(set(errors)) == 1


@pytest.mark.parametrize("eps_floor", [0.9, 0.5, 0.0, -0.1, math.nan])
def test_tune_rejects_eps_floor_outside_0_to_1_over_n(eps_floor):
    with pytest.raises(ValueError, match=r"eps_floor must lie in \(0, 1/n\)"):
        tune(example1(), TuneConfig(budget=20, steps=2000,
                                    eps_floor=eps_floor))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tables_reuse_the_atoms_of_their_key(monkeypatch, seed):
    # the benchmark's config: one dispatch table per origin and iteration
    # for the whole population, none again when a table is built from its
    # rows, and no policy object
    calls, real = [], policies_module._argmax_table
    for module in (policies_module, tuner_module):
        monkeypatch.setattr(module, "_argmax_table",
                            lambda *a: calls.append(a[2].shape) or real(*a))
    monkeypatch.setattr(tuner_module, "SmwPolicy", None)
    res = tune(example1(), TuneConfig(seed=seed, budget=40))
    assert res.runs["tables"] > 0
    assert calls == [(20, 1), (20, 2)] * 2  # 2 origins, 2 iterations


def clip_twice(alpha, eps_floor):
    """The two clip-and-renormalize passes, which _clip_simplex keeps."""
    a = np.clip(alpha, eps_floor, None)
    a = np.clip(a / a.sum(), eps_floor, None)
    return a / a.sum()


@pytest.mark.parametrize("n, conc", [(2, 0.05), (3, 0.05), (3, 0.5),
                                     (6, 0.02)])
def test_clipped_candidates_stay_on_the_floor(n, conc):
    # sparse Dirichlet draws: the two passes leave some entries just below
    # the floor; draws they leave on it come out bit for bit as they do
    rng, eps_floor, below = np.random.default_rng(n), 1e-3, 0
    for _ in range(3000):
        alpha = rng.dirichlet(np.full(n, conc))
        a, ref = tuner_module._clip_simplex(alpha, eps_floor), \
            clip_twice(alpha, eps_floor)
        assert a.min() >= eps_floor and abs(a.sum() - 1.0) <= 1e-12
        below += ref.min() < eps_floor
        if ref.min() >= eps_floor:
            assert a.tobytes() == ref.tobytes()
    assert below > 0


@pytest.mark.parametrize("n, conc", [(2, 0.02), (3, 0.05), (3, 0.5),
                                     (6, 0.02), (10, 0.05)])
def test_population_clip_is_the_per_row_clip(n, conc):
    # one pass over the population gives each row's own clip bit for bit,
    # rows that take the repair loop included
    rng, eps_floor = np.random.default_rng(n), 1e-3
    alpha = rng.dirichlet(np.full(n, conc), 2000)
    got = tuner_module._clip_simplex(alpha, eps_floor)
    rows = [tuner_module._clip_simplex(a, eps_floor) for a in alpha]
    assert got.tobytes() == np.array(rows).tobytes()
    assert any(clip_twice(a, eps_floor).min() < eps_floor for a in alpha)


def test_tune_candidates_stay_on_the_floor():
    res = tune(example1(), TuneConfig(seed=7, budget=400))
    assert min(alpha.min() for _, _, alpha, _, _, _ in res.trace) >= 1e-3


@pytest.mark.parametrize("n, steps, itemsize", [
    (2, 1, 2), (2, (1 << 16) - 1, 2), (2, 2 * (1 << 16) + 3, 2),
    (257, 1000, 4)])    # 257 * 257 event codes no longer fit two bytes
def test_event_stream_equals_one_draw(n, steps, itemsize):
    net = example1() if n == 2 else build_network(
        n, n, [(i, i) for i in range(n)], np.ones((n, n)))
    stream = tuner_module._stream(net, 11, steps)
    assert stream.itemsize == itemsize
    assert stream.tolist() == draw_events(
        net, np.random.default_rng(11), steps).tolist()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_runs_count_the_walks_behind_the_scores(seed, caplog):
    # the benchmark's config; the counts repeat exactly at each seed
    with caplog.at_level("INFO", logger="smwsim.tuner"):
        res = tune(example1(), TuneConfig(seed=seed, budget=40))
    runs = res.runs
    assert runs["walks_full"] + runs["walks_shared"] == 40
    assert runs["walks_full"] <= 13 and runs["simulated"] == 0
    if seed == 1:
        assert runs["walks_full"] <= 12
    # each iteration builds each distinct table once
    assert 2 <= runs["tables"] <= runs["walks_full"]
    lines = [r.getMessage() for r in caplog.records
             if r.name == "smwsim.tuner"]
    assert len(lines) == 2 and lines[-1].endswith(str(runs))


def test_runs_count_simulator_runs():
    res = tune(example1(), TuneConfig(budget=20, replications=2, steps=43,
                                      K=10))
    assert res.runs == {"walks_full": 0, "walks_shared": 0, "simulated": 40,
                        "tables": 0}
    res = tune(symmetric_ring(4, with_times=True), TuneConfig(
        budget=20, timed=TimedConfig(1.0, 50.0, 4)))
    assert res.runs == {"walks_full": 0, "walks_shared": 0, "simulated": 20,
                        "tables": 0}


def spy_walks(monkeypatch, states):
    """Record each _follow call as (table, row of its start, seed, whether
    it walks the measured steps, events walked)."""
    streams, calls = {}, []
    real_stream, real_follow = tuner_module._stream, tuner_module._follow

    def stream(net, seed, steps, lo=0, k=1):
        out = real_stream(net, seed, steps, lo, k)
        streams[id(out)] = (seed, lo, steps - lo)
        return out

    def follow(table, drop, s, codes):
        seed, lo, events = streams[id(codes)]
        width = len(table) // len(states)
        calls.append((tuple(table), s // width, seed, lo > 0, events))
        return real_follow(table, drop, s, codes)
    monkeypatch.setattr(tuner_module, "_stream", stream)
    monkeypatch.setattr(tuner_module, "_follow", follow)
    return calls


def test_walks_in_disjoint_blocks_never_share_across_splits(monkeypatch):
    # cars never leave their block, so walks that split K differently
    # never meet; a walk shared across splits would move the trace
    block = np.array([[1.0, 2.0], [3.0, 1.0]])
    phi = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block.T]])
    edges = [(i, j) for i in range(4) for j in range(4) if i // 2 == j // 2]
    net = build_network(4, 4, edges, phi)
    cfg = TuneConfig(budget=60, population=20, replications=2, steps=2000,
                     K=3, seed=9)
    states = tuner_module.StateSpace.enumerate(4, cfg.K).states
    calls = spy_walks(monkeypatch, states)
    res = tune(net, cfg)
    walks = {(table, int(states[row][:2].sum()), seed, measured)
             for table, row, seed, measured, _ in calls}
    assert len({split for _, split, _, _ in walks}) > 1
    assert res.runs["walks_shared"] > 0     # sharing did happen
    assert res.runs["walks_full"] == sum(c[3] for c in calls)
    # each table, split and event stream needs a measured walk of its own
    assert {w[:3] for w in walks if not w[3]} <= {w[:3] for w in walks if w[3]}
    assert_trace_matches(res, cfg, steady(net, cfg))


def test_repeated_walks_skip_their_warmup(monkeypatch):
    # the benchmark's config: 20 of the 40 walks at seed 1 repeat the
    # table, start and stream of an earlier walk
    cfg = TuneConfig(seed=1, budget=40)
    calls = spy_walks(monkeypatch, tuner_module.StateSpace.enumerate(2, 10)
                      .states)
    res = tune(example1(), cfg)
    warmups = [c[:3] for c in calls if not c[3]]
    assert len(set(warmups)) == len(warmups) == 40 - 20
    warmup = int(cfg.steps * DEFAULT_JUMP_WARMUP_FRAC)
    assert sum(c[4] for c in calls) == len(warmups) * warmup + \
        res.runs["walks_full"] * (cfg.steps - warmup)
