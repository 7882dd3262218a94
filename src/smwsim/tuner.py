"""Simulation-based search for good scaling parameters.

Cross-entropy over a Dirichlet on the simplex, with common random
numbers across candidates within an iteration so comparisons are
low-variance and runs replay bit-exactly from the seed.  Each choice
follows from one input:

- policy: ``tune_beta`` also draws a log-normal pickup penalty beta and
  scores pickup-aware SMW, ``SmwPickupPolicy(alpha, beta)``, which needs
  a net with pickup times; otherwise ``SmwPolicy(alpha)``.
- simulator: ``cfg.timed`` set runs ``run_timed`` under it, adding pickup
  delay exactly when the net has pickup times.  A jump-chain run at fleet
  size K (``cfg.K`` or an initial state's total) walks the chain's table
  if comb(K + n - 1, n - 1) * phi.size <= ``cfg.steps``, else runs
  ``run_jump_chain``, the per-step reference the walk is tested against.
  Walks on one table and one seed's events that end their warmup in one
  state measure the same drops, so only the first of them is run in full.
- objective: nonempty ``cfg.initial_states`` (jump chain only) scores the
  mean drop fraction of runs started from each state with no warmup;
  otherwise the steady-state drop fraction.
"""

from __future__ import annotations

import functools
import logging
from array import array
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .chain import StateSpace, transitions
from .network import Network
from .policies import DROP, SmwPolicy, SmwPickupPolicy
from .sim import (_SAMPLE_BLOCK, DEFAULT_JUMP_WARMUP_FRAC, TimedConfig,
                  _initial_queues, draw_events, run_jump_chain, run_timed)

DEFAULT_CONCENTRATION = 8.0
CONCENTRATION_GROWTH = 1.25
SMOOTHING = 0.7
ELITE_FRAC = 0.25


@dataclass
class TuneConfig:
    budget: int = 400                  # total candidate evaluations
    replications: int = 1
    steps: int = 15000                 # jump chain
    K: int = 10                        # jump chain fleet size
    timed: TimedConfig | None = None   # set: timed simulator
    initial_states: list = field(default_factory=list)  # set: transient
    seed: int = 0
    population: int = 20
    eps_floor: float = 1e-3

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.budget < self.population:
            raise ValueError("budget must cover at least one population")
        if self.replications < 1:
            raise ValueError("need at least one replication per candidate")
        if self.timed is not None and self.initial_states:
            raise ValueError("initial_states set the jump-chain transient "
                             "objective; they cannot go with timed")


@dataclass
class TuneResult:
    alpha: np.ndarray
    beta: float | None
    best_objective: float
    trace: list           # rows: (iteration, candidate, alpha, beta, mean, stderr)
    runs: dict            # counts: walks_full, walks_shared, simulated


def _clip_simplex(alpha, eps_floor):
    a = np.clip(alpha, eps_floor, None)
    a = a / a.sum()
    # renormalizing can dip an entry below the floor; one repair pass is enough
    a = np.clip(a, eps_floor, None)
    return a / a.sum()


def tune(net: Network, cfg: TuneConfig, tune_beta: bool = False) -> TuneResult:
    """Minimize simulated drop fraction over SMW parameters.

    Candidates are Dirichlet draws refit on the elites each iteration;
    every candidate in an iteration is evaluated with the same
    replication seeds.  Returns the best candidate seen and the full
    evaluation trace.
    """
    n = net.n_supply
    rng = np.random.default_rng(cfg.seed)
    seed_seq = np.random.SeedSequence(cfg.seed)
    conc = np.full(n, DEFAULT_CONCENTRATION / n)
    log_beta_mu, log_beta_sigma = np.log(0.05), 1.0

    n_iter = cfg.budget // cfg.population
    n_elite = max(1, int(round(ELITE_FRAC * cfg.population)))
    trace = []
    best = (np.inf, None, None)     # a nan or infinite mean never enters
    spaces = functools.cache(lambda K: StateSpace.enumerate(n, K))  # per K
    made = dict.fromkeys(("walks_full", "walks_shared", "simulated"), 0)

    for it in range(n_iter):
        rep_seeds = [int(s.generate_state(1)[0]) for s in
                     seed_seq.spawn(cfg.replications)]
        cands = []
        for c in range(cfg.population):
            alpha = _clip_simplex(rng.dirichlet(conc), cfg.eps_floor)
            beta = float(np.exp(rng.normal(log_beta_mu, log_beta_sigma))) \
                if tune_beta else None
            cands.append((alpha, beta))

        scored = []
        # each seed's stream, drawn once
        events = functools.cache(lambda s: _stream(net, s, cfg.steps))
        walked = {}  # (K, source, warmup, seed) -> {state after warmup: drops}
        for c, (alpha, beta) in enumerate(cands):
            vals = np.array(_evaluate(net, cfg, alpha, beta, rep_seeds, events,
                                      spaces, walked, made), dtype=float)
            mean = float(np.nanmean(vals))
            finite = vals[np.isfinite(vals)]
            stderr = float(np.std(finite, ddof=1) / np.sqrt(len(finite))) \
                if len(finite) > 1 else 0.0
            scored.append((mean, c))
            trace.append((it, c, alpha.copy(), beta, mean, stderr))
            if mean < best[0]:
                best = (mean, alpha.copy(), beta)

        scored.sort(key=lambda t: (t[0], t[1]))
        logging.getLogger(__name__).info(
            "iteration %d: best mean %.6g; walks %d full, %d shared", it,
            scored[0][0], made["walks_full"], made["walks_shared"])
        elites = [cands[c][0] for (_, c) in scored[:n_elite]]
        elite_mean = np.mean(elites, axis=0)
        target = elite_mean * DEFAULT_CONCENTRATION * \
            CONCENTRATION_GROWTH ** (it + 1)
        conc = SMOOTHING * target + (1.0 - SMOOTHING) * conc
        if tune_beta:
            elite_betas = [cands[c][1] for (_, c) in scored[:n_elite]]
            log_beta_mu = SMOOTHING * float(np.mean(np.log(elite_betas))) \
                + (1.0 - SMOOTHING) * log_beta_mu
            log_beta_sigma = max(0.1, SMOOTHING * float(
                np.std(np.log(elite_betas))) + (1.0 - SMOOTHING) * log_beta_sigma)

    if best[1] is None:
        raise RuntimeError("no candidate produced a finite objective")
    return TuneResult(best[1], best[2], best[0], trace, made)


def _evaluate(net, cfg: TuneConfig, alpha, beta, seeds, events, spaces,
              walked, made) -> list:
    """Objective of one candidate at each replication seed."""
    policy = SmwPolicy(net, alpha) if beta is None \
        else SmwPickupPolicy(net, alpha, beta)
    if cfg.timed is not None:
        pickup = net.pickup_time is not None
        made["simulated"] += len(seeds)
        return [run_timed(net, policy, cfg.timed, pickup, s).drop_fraction
                for s in seeds]
    runs = [(int(np.sum(q)), 0, q) for q in cfg.initial_states] or \
        [(cfg.K, int(cfg.steps * DEFAULT_JUMP_WARMUP_FRAC), None)]
    n, size, steps = net.n_supply, net.phi.size, cfg.steps
    tables, vals = {}, []   # fleet size -> (table, drop, rank, source bytes)
    for K, warmup, init in runs:
        if K < 0 or comb(K + n - 1, n - 1) * size > steps:  # K < 0 fails there
            made["simulated"] += len(seeds)
            vals.append([run_jump_chain(net, policy, K, steps, warmup, s,
                                        init).drop_fraction for s in seeds])
            continue
        if K not in tables:     # deterministic SMW: an atom per (row, origin)
            space = spaces(K)
            _, source, _, tgt = transitions(net, policy, space)
            tables[K] = ((tgt * size).ravel().tolist(), np.repeat(
                source == DROP, n).tolist(), space.rank, source.tobytes())
        table, drop, rank, source = tables[K]
        start = size * int(rank([_initial_queues(policy, n, K, init)])[0])
        vals.append([_walk(table, drop, start, events(s), warmup, made,
                           walked.setdefault((K, source, warmup, s), {}))
                     / (steps - warmup) for s in seeds])
    return [float(np.mean(v)) for v in zip(*vals)]


def _stream(net, seed, steps) -> array:
    """The events run_jump_chain draws at seed, drawn block by block into
    2-byte codes while the codes fit (numpy reads the type code alike)."""
    rng = np.random.default_rng(seed)
    out = array("H" if net.phi.size <= 1 << 16 else "I")
    for lo in range(0, steps, _SAMPLE_BLOCK):
        block = draw_events(net, rng, min(_SAMPLE_BLOCK, steps - lo))
        out.frombytes(block.astype(out.typecode).tobytes())
    return out


def _walk(table, drop, s, events, warmup, made, walked) -> int:
    """Measured drops of a walk from s that goes on event e to table[s + e].

    walked maps the states where earlier walks on this table and events
    ended their warmup to their measured drops.  Walks in one state at one
    step go on together, so a walk that ends its warmup there shares them."""
    for e in events[:warmup]:
        s = table[s + e]
    if s in walked:
        made["walks_shared"] += 1
        return walked[s]
    made["walks_full"] += 1
    end, drops = s, 0
    for e in events[warmup:]:
        s += e
        drops += drop[s]
        s = table[s]
    walked[end] = drops
    return drops
