"""The four benchmark workloads, each shaped like one smwsim CLI command.

Each workload calls the public functions its CLI subcommand calls, but
directly and through the module attributes (``sim.run_timed``, not a name
imported from ``smwsim``), so that the tracer's patches see every call.
A workload has three parts:

* ``setup(seed)`` -- instance generation, fleet sizing and policy
  construction (this is where ``optimal_alpha`` for ``smw-optimal`` runs);
* ``cells(state)`` -- the (label, fn) cells of one round, the unit the
  benchmark times and repeats; ``fn(tally)`` runs the cell's operations;
* ``check(state, rounds, seed)`` and ``figures(state, rounds)`` --
  correctness checks against independent references, and the workload's
  own figures.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import smwsim.chain as chain
import smwsim.exponent as exponent
import smwsim.instances as instances
import smwsim.lp as lp
import smwsim.network as network
import smwsim.policies as policies
import smwsim.sim as sim
import smwsim.tuner as tuner

import checks

DIGESTS = Path(__file__).with_name("digests.json")


class Tally:
    """Operations attempted and failed.  A failing operation is recorded
    with its traceback and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:   # a failed cell is counted, not fatal
            self.failures.append({"op": label,
                                  "error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc()})
            return None


def op(label, fn, *args, **kwargs):
    """A cell that is one counted operation."""
    return label, lambda tally: tally.run(label, fn, *args, **kwargs)


def run_round(wl, state, tally, after_cell=None):
    """One pass over the workload's cells: [(label, result, seconds)].

    ``after_cell(seconds)`` runs between cells, outside the timed part."""
    out = []
    for label, fn in wl.cells(state):
        t0 = time.perf_counter()
        res = fn(tally)
        out.append((label, res, time.perf_counter() - t0))
        if after_cell is not None:
            after_cell(out[-1][2])
    return out


def sub_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def relabel(net, rng):
    """Isomorphic copy of a square network, node labels permuted by rng."""
    perm = rng.permutation(net.n_supply)
    phi = np.empty_like(net.phi)
    phi[np.ix_(perm, perm)] = net.phi
    edges = [(int(perm[i]), int(perm[j])) for (i, j) in net.edges]
    return network.build_network(net.n_supply, net.n_demand, edges, phi)


def make_policy(net, name):
    """Policy by CLI name, built the way ``smwsim`` builds it."""
    if name == "vanilla":
        return policies.vanilla_policy(net)
    if name == "smw-optimal":
        alpha, _ = exponent.optimal_alpha(net)
        p = policies.SmwPolicy(net, alpha)
        p.name = name
        return p
    if name == "fluid":
        cost = np.zeros((net.n_supply, net.n_demand))
        if net.pickup_time is not None:
            cost = np.array(net.pickup_time[:net.n_supply, :net.n_demand])
        flow = lp.solve_transportation(net.col_rates(), net.row_rates(), cost,
                                       support=list(net.edges))
        return policies.FluidPolicy(net, flow)
    raise ValueError(f"unknown policy {name!r}")


def check(ok, **detail) -> dict:
    return {"ok": bool(ok), **detail}


def replay_checks(name, seed, payloads) -> dict:
    """Every round must replay the same digest; at a recorded seed it must
    also equal the recorded digest."""
    digests = [checks.digest(p) for p in payloads]
    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    out = {"replay_rounds": check(len(set(digests)) == 1, digests=digests)}
    if recorded is not None:
        out["replay_recorded"] = check(digests[0] == recorded,
                                       digest=digests[0], recorded=recorded)
    return out


def median_of(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


class Simulate:
    """Mirrors ``smwsim sweep``: one long run per cell."""

    name = "simulate"
    RING = 10
    JUMP_K = 30
    JUMP_STEPS = 100_000
    JUMP_POLICIES = ("vanilla", "smw-optimal")
    RATE = 2.0                  # arrivals per minute
    SLACK = 10                  # K = K_fl + SLACK
    HORIZON = 20_000.0          # minutes
    TIMED_POLICIES = ("vanilla", "smw-optimal", "fluid")
    LITTLE_RTOL = 0.02

    def setup(self, seed):
        ring = instances.symmetric_ring(self.RING)
        # the ring is the same for every seed (symmetric_ring draws nothing
        # from its rng), so the seed drives only the simulation seeds
        city = instances.symmetric_ring(self.RING, with_times=True)
        k = sim.fleet_requirement(city, self.RATE).k_fl + self.SLACK
        cfg = sim.TimedConfig(self.RATE, self.HORIZON, k)
        seeds = sub_seeds(seed, len(self.JUMP_POLICIES) + len(self.TIMED_POLICIES))
        cells = []
        for name in self.JUMP_POLICIES:
            cells.append((f"jump/{name}", "run_jump_chain",
                          (ring, make_policy(ring, name), self.JUMP_K,
                           self.JUMP_STEPS), {"seed": seeds[len(cells)]}))
        for name in self.TIMED_POLICIES:
            cells.append((f"timed/{name}", "run_timed",
                          (city, make_policy(city, name), cfg),
                          {"with_pickup": True, "seed": seeds[len(cells)]}))
        return {"cells": cells, "policies": [c[2][1] for c in cells],
                "seeds": {"sim": seeds}, "timed": cfg}

    def cells(self, state):
        # look the simulator up per round so traced rounds see the patch
        return [op(label, getattr(sim, fn), *args, **kw)
                for label, fn, args, kw in state["cells"]]

    @staticmethod
    def _counts(rnd):
        return [[label, None] if rep is None else
                [label, rep.arrivals, rep.drops, rep.served]
                for label, rep, _ in rnd]

    def check(self, state, rounds, seed):
        out = replay_checks(self.name, seed, [self._counts(r) for r in rounds])
        reps = [rep for _, rep, _ in rounds[0] if rep is not None]
        out["drop_in_unit_interval"] = check(
            all(0.0 <= r.drop_fraction <= 1.0 for r in reps))
        cfg = state["timed"]
        window = cfg.horizon_minutes * (1.0 - cfg.warmup_frac)
        errs = {label: checks.littles_law_error(rep, window)
                for label, rep, _ in rounds[0]
                if rep is not None and label.startswith("timed/")}
        out["littles_law"] = check(
            all(abs(e) <= self.LITTLE_RTOL for e in errs.values()),
            rel_err=errs, rtol=self.LITTLE_RTOL)
        return out

    def figures(self, state, rounds):
        def rate(rnd, kind, work):
            cells = [(rep, t) for label, rep, t in rnd
                     if label.startswith(kind) and rep is not None]
            return sum(work(rep) for rep, _ in cells) / sum(t for _, t in cells)
        return {
            "jump_steps_per_s": (median_of(
                rounds, lambda r: rate(r, "jump/", lambda _: self.JUMP_STEPS)),
                "1/s"),
            "timed_arrivals_per_s": (median_of(
                rounds, lambda r: rate(r, "timed/", lambda rep: rep.arrivals)),
                "1/s"),
        }


class Tune:
    """Mirrors ``smwsim tune``: many short runs on a 2-node network."""

    name = "tune"
    BUDGET = 40                 # two cross-entropy iterations of 20

    def setup(self, seed):
        net = instances.example1()
        cfg = tuner.TuneConfig(seed=seed, budget=self.BUDGET)
        return {"net": net, "cfg": cfg, "policies": [],
                "seeds": {"tuner": seed}}

    def cells(self, state):
        return [op("tune", tuner.tune, state["net"], state["cfg"])]

    @staticmethod
    def _trace(rnd):
        res = rnd[0][1]
        return None if res is None else [[it, c, list(map(float, a)), mean]
                                         for it, c, a, _, mean, _ in res.trace]

    def check(self, state, rounds, seed):
        out = replay_checks(self.name, seed, [self._trace(r) for r in rounds])
        res = rounds[0][0][1]
        if res is not None:
            out["objective_in_unit_interval"] = check(
                0.0 <= res.best_objective <= 1.0, objective=res.best_objective)
            out["alpha_on_simplex"] = check(
                abs(res.alpha.sum() - 1.0) <= 1e-12 and np.all(res.alpha > 0))
        return out

    def figures(self, state, rounds):
        return {"tune_evals_per_s": (median_of(
            rounds, lambda r: len(r[0][1].trace) / r[0][2]
            if r[0][1] is not None else 0.0), "1/s")}


class Exact:
    """Mirrors ``smwsim exact``: the stationary-solve oracle."""

    name = "exact"
    N = 4
    BASE_SEED = 1
    KS = (20, 30, 40)
    POLICIES = ("vanilla", "smw-optimal")
    TAIL_K = 200
    REF_KS = (10, 20)
    REF_RTOL = 1e-10

    def setup(self, seed):
        base = instances.random_crp(self.N, seed=self.BASE_SEED)
        net = relabel(base, np.random.default_rng(seed))
        pols = {name: make_policy(net, name) for name in self.POLICIES}
        tail_net = instances.example1()
        tail_pol = policies.vanilla_policy(tail_net)
        cells = [(f"{name}/K{K}", net, pols[name], K)
                 for name in self.POLICIES for K in self.KS]
        cells.append((f"example1/vanilla/K{self.TAIL_K}", tail_net, tail_pol,
                      self.TAIL_K))
        return {"cells": cells, "tail": (tail_net, tail_pol),
                "policies": [*pols.values(), tail_pol],
                "seeds": {"instance": self.BASE_SEED, "relabel": seed}}

    def cells(self, state):
        return [op(label, chain.stationary_drop_probability, net, pol, K)
                for label, net, pol, K in state["cells"]]

    def _reference(self, net, K):
        start = int(sim.proportional_init(exponent.uniform_alpha(2), K)[0])
        return checks.birth_death_log10_drop(net.phi, net.edges, K, start)

    def check(self, state, rounds, seed):
        sols = [sol for rnd in rounds for _, sol, _ in rnd if sol is not None]
        out = {"drop_in_unit_interval": check(
            all(0.0 <= s.drop_probability <= 1.0 for s in sols))}
        out["residuals_reported"] = check(
            all(math.isfinite(s.residual) for s in sols),
            residuals={label: sol.residual for label, sol, _ in rounds[0]
                       if sol is not None})
        net, pol = state["tail"]
        rel = {}
        for K in self.REF_KS:
            p = chain.stationary_drop_probability(net, pol, K).drop_probability
            rel[f"K{K}"] = abs(p / 10.0 ** self._reference(net, K) - 1.0)
        out["birth_death_reference"] = check(
            all(r <= self.REF_RTOL for r in rel.values()), rel_err=rel,
            rtol=self.REF_RTOL)
        return out

    def figures(self, state, rounds):
        figs = {"exact_s": (median_of(
            rounds, lambda r: sum(t for label, _, t in r
                                  if not label.startswith("example1"))), "s")}
        tail = rounds[0][-1][1]
        if tail is not None:
            p = tail.drop_probability
            ref = self._reference(state["tail"][0], self.TAIL_K)
            err = abs(math.log10(p) - ref) if p > 0 else math.inf
            figs["exact_tail_log10_err"] = (err, "decades")
        return figs


class AlphaLp:
    """Mirrors ``smwsim gamma --optimal``: the alpha LP and the drift LP."""

    name = "alpha_lp"
    NS = (12, 14, 15)
    BASE_SEED = 0
    HIGHS_TOL = 1e-9

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        nets = [(n, relabel(instances.random_crp(n, seed=self.BASE_SEED), rng))
                for n in self.NS]
        return {"nets": nets, "policies": [],
                "seeds": {"instance": self.BASE_SEED, "relabel": seed}}

    def cells(self, state):
        return [(f"n{n}", functools.partial(self._calls, n, net))
                for n, net in state["nets"]]

    @staticmethod
    def _calls(n, net, tally):
        """The three calls on one instance; each depends on the last."""
        opt = tally.run(f"n{n}/optimal_alpha", exponent.optimal_alpha, net)
        path = speed = None
        if opt is not None:
            path = tally.run(f"n{n}/most_likely_path",
                             exponent.most_likely_path, net, opt[0])
        if path is not None:
            speed = tally.run(f"n{n}/min_drift_speed",
                              exponent.min_drift_speed, net, opt[0],
                              path.f_star)
        return opt, path, speed

    def check(self, state, rounds, seed):
        gaps, speeds, kl = {}, {}, {}
        for (n, net), (_, (opt, path, speed), _) in zip(state["nets"],
                                                        rounds[0]):
            if opt is not None:
                subsets = [st for st, _, _ in opt[1].per_subset]
                ref = checks.highs_gamma(net, subsets,
                                         exponent.DEFAULT_EPS_FLOOR)
                gaps[f"n{n}"] = abs(opt[1].gamma - ref)
            if path is not None:
                kl[f"n{n}"] = path.kl_rate
            if speed is not None:
                speeds[f"n{n}"] = speed
        return {
            "gamma_matches_highs": check(
                all(g <= self.HIGHS_TOL for g in gaps.values()),
                abs_err=gaps, tol=self.HIGHS_TOL),
            "kl_rate_finite_nonnegative": check(
                all(math.isfinite(v) and v >= 0 for v in kl.values()),
                kl_rate=kl),
            "drift_speed_finite": check(
                all(math.isfinite(v) for v in speeds.values()), speed=speeds),
        }

    def figures(self, state, rounds):
        return {"alpha_lp_s": (median_of(
            rounds, lambda r: sum(t for _, _, t in r)), "s")}


WORKLOADS = {w.name: w for w in (Simulate, Tune, Exact, AlphaLp)}
