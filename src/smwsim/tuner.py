"""Simulation-based search for good scaling parameters.

Cross-entropy over a Dirichlet on the simplex, with common random
numbers across candidates within an iteration so comparisons are
low-variance and runs replay bit-exactly from the seed.  Each choice
follows from one input:

- policy: ``SmwPolicy(net, alpha, beta)``.  ``tune_beta`` also draws a
  log-normal pickup penalty beta, which needs a net with pickup times;
  otherwise beta is None.  One clip takes the whole population.
- simulator, chosen once per call: ``cfg.timed`` set runs ``run_timed``
  under it, adding pickup delay exactly when the net has pickup times.
  Otherwise a jump-chain run at fleet size ``cfg.K`` walks the chain's
  table if comb(K + n - 1, n - 1) * phi.size <= ``cfg.steps``, else runs
  ``run_jump_chain``, the per-step reference the walk is tested against.
  The walk takes each population in one pass, with no policy object: one
  ``_argmax_table`` call per origin gives all dispatch sources (a table's
  key), one row-wise ``proportional_init`` all start rows, and one
  ``transitions`` call per chunk of about ``steps`` entries the
  iteration's distinct tables, each composed to k events a lookup.
  Walks on it and one seed's events from one start, or from one state
  after warmup, share measured drops.

The objective is the steady-state drop fraction, one run per seed.
"""

from __future__ import annotations

import functools
import logging
from array import array
from dataclasses import dataclass
from math import comb

import numpy as np

from .chain import StateSpace, transitions
from .network import Network
from .policies import DROP, SmwPolicy, _argmax_table, smw_rows
from .sim import (_SAMPLE_BLOCK, DEFAULT_JUMP_WARMUP_FRAC, TimedConfig,
                  draw_events, proportional_init, run_jump_chain, run_timed)

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
    seed: int = 0
    population: int = 20
    eps_floor: float = 1e-3

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.budget < 1 or self.budget % self.population:
            raise ValueError("budget must be a positive multiple of population")
        if self.replications < 1:
            raise ValueError("need at least one replication per candidate")


@dataclass
class TuneResult:
    alpha: np.ndarray
    beta: float | None
    best_objective: float
    trace: list           # rows: (iteration, candidate, alpha, beta, mean, stderr)
    runs: dict            # walks_full, walks_shared, simulated, tables


def _clip_simplex(alpha, eps_floor):
    a = np.clip(alpha, eps_floor, None)     # each row, on the last axis
    a = a / a.sum(axis=-1, keepdims=True)
    # renormalizing can dip an entry below the floor, and so can the repair
    a = np.clip(a, eps_floor, None)
    a = a / a.sum(axis=-1, keepdims=True)
    rows = a.reshape(-1, a.shape[-1])       # a view: repairs land in a
    for i in np.flatnonzero((rows < eps_floor).any(axis=1)):
        row, pin = rows[i], np.zeros(a.shape[-1], bool)
        while np.any(row[~pin] < eps_floor):  # pin, rescale the rest
            pin |= row < eps_floor    # one more a round; eps_floor < 1/n
            row[pin] = eps_floor
            row[~pin] *= (1.0 - pin.sum() * eps_floor) / row[~pin].sum()
    return a


def tune(net: Network, cfg: TuneConfig, tune_beta: bool = False) -> TuneResult:
    """Minimize simulated drop fraction over SMW parameters.

    Candidates are Dirichlet draws refit on the elites each iteration;
    every candidate in an iteration is evaluated with the same
    replication seeds.  Returns the best candidate seen and the full
    evaluation trace.
    """
    n = net.n_supply
    if not 0.0 < cfg.eps_floor < 1.0 / n:     # as optimal_alpha checks it
        raise ValueError("eps_floor must lie in (0, 1/n)")
    rng = np.random.default_rng(cfg.seed)
    seed_seq = np.random.SeedSequence(cfg.seed)
    conc = np.full(n, DEFAULT_CONCENTRATION / n)
    log_beta_mu, log_beta_sigma = np.log(0.05), 1.0

    n_iter = cfg.budget // cfg.population
    n_elite = max(1, int(round(ELITE_FRAC * cfg.population)))
    trace = []
    best = (np.inf, None, None)     # a nan or infinite mean never enters
    space = None    # set: jump-chain runs walk this state space's table
    if cfg.timed is None and cfg.K >= 0 and \
            comb(cfg.K + n - 1, n - 1) * net.phi.size <= cfg.steps:
        space = StateSpace.enumerate(n, cfg.K)  # else run_jump_chain checks K
    made = dict.fromkeys("walks_full walks_shared simulated tables".split(), 0)

    for it in range(n_iter):
        rep_seeds = [int(s.generate_state(1)[0]) for s in
                     seed_seq.spawn(cfg.replications)]
        alpha, betas = zip(*[(rng.dirichlet(conc), float(np.exp(rng.normal(
            log_beta_mu, log_beta_sigma))) if tune_beta else None)
            for _ in range(cfg.population)])   # then one clip for them all
        alpha = _clip_simplex(np.array(alpha), cfg.eps_floor)

        vals = _evaluate(net, cfg, alpha, betas, rep_seeds, space, made)
        with np.errstate(invalid="ignore"):   # 0 / 0 where every run is nan
            means = np.nansum(vals, axis=1) / (~np.isnan(vals)).sum(axis=1)
        scored = []
        for c, mean in enumerate(means.tolist()):
            finite = vals[c][np.isfinite(vals[c])]
            stderr = float(np.std(finite, ddof=1) / np.sqrt(len(finite))) \
                if len(finite) > 1 else 0.0
            scored.append((mean, c))
            trace.append((it, c, alpha[c].copy(), betas[c], mean, stderr))
            if mean < best[0]:
                best = (mean, alpha[c].copy(), betas[c])

        scored.sort(key=lambda t: (t[0], t[1]))
        logging.getLogger(__name__).info("iteration %d: best mean %.6g; %s",
                                         it, scored[0][0], dict(made))
        elite_mean = np.mean(alpha[[c for _, c in scored[:n_elite]]], axis=0)
        target = elite_mean * DEFAULT_CONCENTRATION * \
            CONCENTRATION_GROWTH ** (it + 1)
        conc = SMOOTHING * target + (1.0 - SMOOTHING) * conc
        if tune_beta:
            elite_betas = [betas[c] for (_, c) in scored[:n_elite]]
            log_beta_mu = SMOOTHING * float(np.mean(np.log(elite_betas))) \
                + (1.0 - SMOOTHING) * log_beta_mu
            log_beta_sigma = max(0.1, SMOOTHING * float(
                np.std(np.log(elite_betas))) + (1.0 - SMOOTHING) * log_beta_sigma)

    if best[1] is None:
        raise RuntimeError("no candidate produced a finite objective")
    return TuneResult(best[1], best[2], best[0], trace, made)


def _evaluate(net, cfg, alpha, betas, seeds, space, made) -> np.ndarray:
    """Objective of each candidate, a row of alpha and its beta (or None),
    at each replication seed."""
    if space is None:       # a policy per candidate, a run per seed
        made["simulated"] += len(alpha) * len(seeds)
        pickup = net.pickup_time is not None
        run = (lambda p, s: run_timed(net, p, cfg.timed, pickup, s)) \
            if cfg.timed is not None else \
            (lambda p, s: run_jump_chain(net, p, cfg.K, cfg.steps, seed=s))
        return np.array([[run(p, s).drop_fraction for s in seeds]
                         for p in (SmwPolicy(net, a, b) for a, b in
                                   zip(alpha, betas))])
    # deterministic SMW, the whole population at once: per origin, one
    # source row per candidate; a key is its rows' bytes, origins in order
    beta = None if betas[0] is None else betas
    srcs = np.stack([_argmax_table(space.states, *rows)[0][0]
                     for rows in smw_rows(net, alpha, beta)], axis=1)
    starts = np.abs(space.states - proportional_init(alpha, cfg.K)[:, None])\
        .sum(axis=2).argmin(axis=1).tolist()
    steps, codes = cfg.steps, functools.cache(functools.partial(_stream, net))
    warmup = int(steps * DEFAULT_JUMP_WARMUP_FRAC)
    keys = [src.tobytes() for src in srcs]
    at = dict(zip(keys, range(len(keys))))      # a candidate per key
    made["tables"] += len(at)
    tables = dict(zip(at, _tables(net, srcs[list(at.values())], space, steps)))
    walked, vals = {}, np.empty((len(alpha), len(seeds)))
    for c, key in enumerate(keys):
        k, width, *walk = tables[key]      # walk: next-row and drop lists
        start = starts[c] * width
        for r, s in enumerate(seeds):   # start -> after warmup -> drops
            ends, drops = walked.setdefault((key, s), ({}, {}))
            if start not in ends:
                ends[start] = _follow(*walk, start, codes(s, warmup, 0, k))[0]
            end = ends[start]
            made["walks_shared" if end in drops else "walks_full"] += 1
            if end not in drops:
                drops[end] = _follow(*walk, end, codes(s, steps, warmup, k))[1]
            vals[c, r] = drops[end] / (steps - warmup)
    return vals


def _tables(net, srcs, space, steps) -> list:
    """Per key of srcs[key, origin] (a source per row), k, row width, next-row
    and drop lists: per row, the row reached (times the width) and drops on
    each block of k events, in C order, then (k > 1) on each single event;
    k is the largest with rows * size^k * k^2 <= steps, so the table stays
    well below the walks that read it.  One transitions call per chunk of
    keys, of at most about steps (row, origin, key, dest) entries."""
    rows, size, n = len(space.states), net.phi.size, net.n_supply
    k = 1
    while rows * size ** (k + 1) * (k + 1) ** 2 <= steps:
        k += 1
    width = size ** k + size * (k > 1)
    offsets = np.arange(rows, dtype=object) * width   # an int a row: less RAM
    chunk, out = max(1, steps // (rows * size)), []
    for lo in range(0, len(srcs), chunk):
        part = srcs[lo:lo + chunk]
        keys = len(part)
        atoms = [[(src, 1.0) for src in by_key]
                 for by_key in part.swapaxes(0, 1)]
        source, tgt = transitions(net, atoms, space)[1::2]   # rates not kept
        # (row, origin, key) order to (key, row, origin * n + dest)
        nxt = tgt = tgt.reshape(rows, -1, keys, n).transpose(2, 0, 1, 3)\
            .reshape(keys, rows, size)
        drops = hit = (source == DROP).reshape(rows, -1, keys)\
            .transpose(2, 0, 1).repeat(n, axis=2) * 1
        at = np.arange(keys)[:, None, None]
        for _ in range(k - 1):      # a block, then one more event
            drops = (drops[..., None] + hit[at, nxt]).reshape(keys, rows, -1)
            nxt = tgt[at, nxt].reshape(keys, rows, -1)
        if k > 1:                   # single events, for those left over
            nxt, drops = np.dstack([nxt, tgt]), np.dstack([drops, hit])
        out += [(k, width, offsets[t].ravel().tolist(), d.ravel().tolist())
                for t, d in zip(nxt, drops)]
    return out


def _stream(net, seed, steps, lo=0, k=1) -> array:
    """Codes, in ``_tables``' layout, of the events run_jump_chain draws at
    seed from step lo to steps: an index per block of k, then size^k plus
    each event left over.  Drawn a block at a time, in 2 bytes if they fit."""
    rng, size = np.random.default_rng(seed), net.phi.size
    code = "H" if size ** k + size <= 1 << 16 else "I"
    ev = np.empty(steps, code)
    for part in np.split(ev, range(_SAMPLE_BLOCK, steps, _SAMPLE_BLOCK)):
        part[:] = draw_events(net, rng, len(part))
    cut = steps - (steps - lo) % k
    blocks = np.zeros((cut - lo) // k, code)
    for col in ev[lo:cut].reshape(-1, k).T:     # first event most significant
        blocks = blocks * size + col
    return array(code, blocks.tobytes() + (ev[cut:] + size ** k).tobytes())


def _follow(table, drop, s, codes) -> tuple:
    """End and drops of a walk from s: code c goes to table[s + c]."""
    drops = 0
    for c in codes:
        s += c
        drops += drop[s]
        s = table[s]
    return s, drops
