"""Simulation-based search for good scaling parameters.

Cross-entropy over a Dirichlet on the simplex, with common random
numbers across candidates within an iteration so comparisons are
low-variance and runs replay bit-exactly from the seed.  Each choice
follows from one input:

- policy: ``tune_beta`` also draws a log-normal pickup penalty beta and
  scores pickup-aware SMW, ``SmwPickupPolicy(alpha, beta)``, which needs
  a net with pickup times; otherwise ``SmwPolicy(alpha)``.
- simulator: ``cfg.timed`` set runs ``run_timed`` under it, adding pickup
  delay exactly when the net has pickup times; otherwise
  ``run_jump_chain`` runs ``cfg.steps`` steps at fleet size ``cfg.K``.
- objective: nonempty ``cfg.initial_states`` (jump chain only) scores the
  mean drop fraction of runs started from each state with no warmup;
  otherwise the steady-state drop fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network
from .policies import SmwPolicy, SmwPickupPolicy
from .sim import TimedConfig, run_jump_chain, run_timed

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
    best = (np.inf, None, None)
    any_finite = False

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
        for c, (alpha, beta) in enumerate(cands):
            vals = [_evaluate(net, cfg, alpha, beta, s) for s in rep_seeds]
            vals = np.array(vals, dtype=float)
            mean = float(np.nanmean(vals))
            finite = vals[np.isfinite(vals)]
            stderr = float(np.std(finite, ddof=1) / np.sqrt(len(finite))) \
                if len(finite) > 1 else 0.0
            scored.append((mean, c))
            trace.append((it, c, alpha.copy(), beta, mean, stderr))
            if np.isfinite(mean):
                any_finite = True
                if mean < best[0]:
                    best = (mean, alpha.copy(), beta)

        scored.sort(key=lambda t: (t[0], t[1]))
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

    if not any_finite:
        raise RuntimeError("no candidate produced a finite objective")
    return TuneResult(best[1], best[2], best[0], trace)


def _evaluate(net, cfg: TuneConfig, alpha, beta, seed) -> float:
    policy = SmwPolicy(net, alpha) if beta is None \
        else SmwPickupPolicy(net, alpha, beta)
    if cfg.timed is not None:
        return run_timed(net, policy, cfg.timed, seed=seed,
                         with_pickup=net.pickup_time is not None).drop_fraction
    if cfg.initial_states:
        return float(np.mean([
            run_jump_chain(net, policy, int(np.sum(init)), cfg.steps,
                           warmup=0, seed=seed, init=init).drop_fraction
            for init in cfg.initial_states]))
    return run_jump_chain(net, policy, cfg.K, cfg.steps,
                          seed=seed).drop_fraction
