"""Large-deviations analysis of scaled MaxWeight dispatch.

Closed-form decay exponent of the demand-drop probability, the
exponent-optimal scaling vector, critical demand subsets, the most likely
demand-rate matrix draining a critical subset, the KL rate of an atypical
rate matrix, and the min-drift variational speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp import LinearProgram, solve_lp
from .network import (Network, _nontrivial_pairs, hall_subsets, mask_indices,
                      masked_sum)
# not called here, but the benchmark tracer patches validate_network here
from .network import validate_network  # noqa: F401

TIE_RTOL = 1e-9
SIMPLEX_TOL = 1e-9
DEFAULT_EPS_FLOOR = 1e-3
PAIR_BLOCK = 1024  # columns per (pairs x columns) block of _pair_sums


class PoolingViolationError(ValueError):
    """Raised when the strict Hall-type pooling condition fails."""

    def __init__(self, subset, slack):
        self.subset = tuple(subset)
        self.slack = slack
        super().__init__(
            f"pooling condition violated by demand subset {self.subset} "
            f"(slack {slack:.6g})")


@dataclass(frozen=True, slots=True)
class SubsetStats:
    """One drainable demand subset and its rate atoms.

    lambda_rate is the supply inflow to the subset's neighborhood from
    demand originating outside the subset; mu_rate is the supply outflow
    from the subset to destinations outside the neighborhood.
    """
    members: tuple
    boundary: tuple
    lambda_rate: float
    mu_rate: float

    @property
    def log_ratio(self) -> float:
        return math.log(self.lambda_rate / self.mu_rate)


@dataclass(frozen=True, eq=False)
class ExponentResult:
    gamma: float                  # math.inf when no subset is drainable
    critical_subsets: tuple       # argmin subsets (members tuples)
    _columns: tuple = field(repr=False)  # (packed masks, rates), alpha

    @property
    def per_subset(self) -> tuple:
        """(SubsetStats, boundary mass, contribution) per closed drainable
        subset; ``_exponent`` computes the last two again, bit for bit."""
        (*masks, lam, mu), alpha = self._columns
        # the padding rows unpack as False, so no index tuple shows them
        cols = [np.unpackbits(a, axis=0).view(bool) for a in masks] + [lam, mu]
        stats = _stats(*cols)
        _, mass, contrib = _exponent(alpha, cols, np.array(
            [st.log_ratio for st in stats]))
        return tuple(zip(stats, mass.tolist(), contrib.tolist()))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.gamma)

    def rate_path(self, net: Network) -> RatePath:
        """Exponentially twisted rate matrix draining the lexicographically
        smallest critical subset, from this result's columns and its net:
        demand from inside the subset to outside its neighborhood is inflated
        by the inflow/outflow ratio, the reverse flows are deflated, the rest
        keeps its typical rate."""
        if self.is_infinite:
            raise ValueError("no drainable subset: most likely path undefined")
        (members, boundary, lam, mu), alpha = self._columns
        jstar = self.critical_subsets[0]
        inside = np.isin(np.arange(net.n_demand), jstar)
        k = np.flatnonzero((members.T == np.packbits(inside)).all(axis=1))[0]
        bnd = np.unpackbits(boundary[:, k], count=net.n_supply).view(bool)
        lam, mu = float(lam[k]), float(mu[k])
        f = net.phi.copy()
        f[np.ix_(inside, ~bnd)] *= lam / mu
        f[np.ix_(~inside, bnd)] /= lam / mu
        mass = float(masked_sum(bnd[:, None], alpha)[0])   # as _exponent adds it
        return RatePath(f, jstar, mass / (lam - mu), kl_rate(f, net.phi))


@dataclass(frozen=True)
class RatePath:
    """Most likely demand-rate matrix draining a critical subset."""
    f_star: np.ndarray
    critical_subset: tuple
    drain_time: float
    kl_rate: float


def check_alpha(alpha, n: int) -> np.ndarray:
    """Validate a scaling vector: positive, length n, sums to 1."""
    alpha = np.atleast_1d(np.array(alpha, dtype=float))
    if alpha.size != n:
        raise ValueError(f"alpha must have length {n}")
    if not abs(alpha.sum() - 1.0) <= 1e-12:     # nan fails too
        raise ValueError("alpha must sum to 1")
    if not np.all(alpha >= np.finfo(float).tiny):
        raise ValueError("alpha entries must be strictly positive")
    return alpha


def uniform_alpha(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def drainable_subsets(net: Network):
    """Closed demand subsets that drain (mu_rate > 0: some member demand
    goes outside the neighborhood), in hall_subsets order, pooled or not:
    the alpha LP's subset rows, the only ones that can be critical."""
    return _stats(*_drainable(net, *hall_subsets(net, net.phi)[1:]))


def _stats(members, boundary, lam, mu) -> list:
    return list(map(SubsetStats, mask_indices(members), mask_indices(boundary),
                    lam.tolist(), mu.tolist()))


def _drainable(net: Network, members, nbrs):
    """Columns (members, boundary, lambda, mu) of the drainable subsets
    (mu > 0) among those given by their member and neighborhood masks."""
    # a node k outside the neighborhood never serves a member j, so only
    # the nontrivial pairs add to mu; pairs without rate add only zeros
    lam = _pair_sums(net.phi, np.nonzero(net.phi), ~members, nbrs)
    mu = _pair_sums(net.phi, _nontrivial_pairs(net), members, ~nbrs)
    return [a.compress(mu > 0, axis=-1) for a in (members, nbrs, lam, mu)]


def _pair_sums(phi, pairs, rows, cols):
    """Per column, the sum of phi[j, k] over the (j, k) pairs, in order,
    where rows[j] and cols[k] are both set: ``masked_sum`` on the pair
    masks, formed PAIR_BLOCK columns at a time to bound the memory."""
    j, k = pairs
    out = np.empty(rows.shape[1])
    for at in range(0, out.size, PAIR_BLOCK):
        out[at:at + PAIR_BLOCK] = masked_sum(
            rows[j, at:at + PAIR_BLOCK] & cols[k, at:at + PAIR_BLOCK],
            phi[j, k])
    return out


def _pooled_subsets(net: Network):
    """Closed drainable subsets, in hall_subsets order, and their log
    ratios (``math.log``, as SubsetStats).  J's closure drains too, with
    J's boundary, less lambda and more mu: its row implies J's.  A failed
    Hall check raises PoolingViolationError on the least slack subset, the
    first in hall_subsets order on ties."""
    slack, members, nbrs = hall_subsets(net, net.phi)
    if slack.min(initial=math.inf) <= 0:
        worst = int(slack.argmin())
        raise PoolingViolationError(mask_indices(members[:, [worst]])[0],
                                    float(slack[worst]))
    cols = _drainable(net, members, nbrs)
    return cols, np.array([math.log(a / b) for a, b in
                           zip(cols[2].tolist(), cols[3].tolist())])


def gamma(net: Network, alpha) -> ExponentResult:
    """Decay exponent of SMW(alpha): min over drainable subsets of
    (resting supply mass on the boundary) * log(inflow/outflow)."""
    alpha = check_alpha(alpha, net.n_supply)
    return _exponent(alpha, *_pooled_subsets(net))[0]


def _exponent(alpha, cols, log_ratio):
    """gamma on a pooled network's drainable subsets, alpha already
    checked: the ExponentResult, boundary masses and contributions."""
    members, boundary = cols[:2]
    # each mass adds alpha a node at a time in ascending order: sum()'s bits
    mass = masked_sum(boundary, alpha)
    contrib = mass * log_ratio
    best = float(contrib.min(initial=math.inf))
    crit = np.flatnonzero(contrib <= best * (1 + TIE_RTOL) + 1e-300)
    packed = (np.packbits(members, axis=0), np.packbits(boundary, axis=0))
    return ExponentResult(best, tuple(sorted(mask_indices(members[:, crit]))),
                          ((*packed, *cols[2:]), alpha)), mass, contrib


def optimal_alpha(net: Network, eps_floor: float = DEFAULT_EPS_FLOOR):
    """Exponent-optimal scaling vector, floored away from the simplex boundary.

    Solves: maximize t subject to t <= log(lambda/mu) * boundary-mass for
    every drainable subset, entries >= eps_floor, entries summing to 1.
    The supremum may only be attained on the boundary, so the floor makes
    this an interior epsilon-optimum.  Returns (alpha, ExponentResult).
    """
    n = net.n_supply
    if not 0.0 < eps_floor < 1.0 / n:
        raise ValueError("eps_floor must lie in (0, 1/n)")
    cols, log_ratio = _pooled_subsets(net)
    if not log_ratio.size:
        a = uniform_alpha(n)
        return a, _exponent(a, cols, log_ratio)[0]

    # variables: alpha_0..alpha_{n-1}, t; one row t - log_ratio * B(alpha) <= 0
    nv = n + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    a_ub = np.zeros((log_ratio.size, nv))
    a_ub[:, :n] = np.where(cols[1].T, -log_ratio[:, None], 0.0)
    a_ub[:, -1] = 1.0
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = 1.0
    lower = np.full(nv, eps_floor)
    lower[-1] = -np.inf
    sol = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=np.zeros(log_ratio.size),
                                 a_eq=a_eq, b_eq=np.array([1.0]), lower=lower))
    if sol.status != "optimal":
        raise RuntimeError(f"optimal-alpha LP returned {sol.status}")
    alpha = sol.x[:n] / sol.x[:n].sum()
    return alpha, _exponent(check_alpha(alpha, n), cols, log_ratio)[0]


def kl_rate(f, phi) -> float:
    """Large-deviations cost per unit time of arrival-rate matrix f.

    Kullback-Leibler divergence of f from phi when f is a distribution
    (0 log 0 = 0); +inf when f is signed, unnormalized, or puts mass
    where phi has none.
    """
    f = np.array(f, dtype=float)
    phi = np.array(phi, dtype=float)
    if not (np.all(f >= 0) and abs(f.sum() - 1.0) <= 1e-9):   # nan fails too
        return math.inf
    if np.any((f > 0) & (phi == 0)):
        return math.inf
    mask = f > 0
    return float(np.sum(f[mask] * np.log(f[mask] / phi[mask])))


def most_likely_path(net: Network, alpha) -> RatePath:
    """``gamma(net, alpha).rate_path(net)``: see ExponentResult.rate_path."""
    return gamma(net, alpha).rate_path(net)


def lyapunov(alpha, x) -> float:
    """Distance-to-boundary potential: 1 - min_i x_i / alpha_i.

    Zero exactly at the resting point x = alpha, one when some queue is
    empty.  x must lie on the simplex within 1e-9.
    """
    alpha = np.atleast_1d(np.array(alpha, dtype=float))
    x = np.atleast_1d(np.array(x, dtype=float))
    if x.size != alpha.size or not (np.all(x >= -SIMPLEX_TOL)   # nan fails
                                    and abs(x.sum() - 1.0) <= SIMPLEX_TOL):
        raise ValueError("x must be a point on the simplex")
    return float(1.0 - np.min(x / alpha))


def min_drift_speed(net: Network, alpha, f) -> float:
    """Minimum growth rate of the potential under arrival rates f.

    Over all fractional assignment rules d (one distribution over the
    compatible supply nodes per demand node), the attainable state change
    in unit time is Delta_i = inflow_i - assigned outflow_i; the speed is
    min over d of max_i(-Delta_i / alpha_i).  By Hall's theorem with
    capacities inflow_i + t alpha_i, that is the max over demand subsets J
    of (f(J) - inflow(N(J))) / alpha(N(J)), f(J) the row mass of J, read
    on hall_subsets and J = all.  More than CLOSED_CAP closed demand
    subsets raise SubsetCapError.
    """
    alpha = check_alpha(alpha, net.n_supply)
    f = np.array(f, dtype=float)
    if not (np.all(f >= 0) and abs(f.sum() - 1.0) <= 1e-9):   # nan fails too
        raise ValueError("f must be a nonnegative matrix summing to 1")
    slack, _, nbrs = hall_subsets(net, f)   # J = all has speed 0
    return float((-slack / masked_sum(nbrs, alpha)).max(initial=0.0))
