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
from .network import Network, hall_subsets, mask_indices, masked_sum
# not called here, but the benchmark tracer patches validate_network here
from .network import validate_network  # noqa: F401

TIE_RTOL = 1e-9
SIMPLEX_TOL = 1e-9
DEFAULT_EPS_FLOOR = 1e-3


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
    # from the one _exponent pass over _net.drainable: the boundary
    # masses, contributions and critical_subsets[0]'s column
    _pass: tuple = field(repr=False)
    _net: Network = field(repr=False)

    @property
    def per_subset(self) -> tuple:
        """(SubsetStats, boundary mass, contribution) per closed drainable
        subset."""
        mass, contrib, _ = self._pass
        return tuple(zip(_stats(*self._net.drainable[:4]), mass.tolist(),
                         contrib.tolist()))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.gamma)

    def rate_path(self) -> RatePath:
        """Exponentially twisted rate matrix draining the lexicographically
        smallest critical subset, from this result's pass on its net:
        demand from inside the subset to outside its neighborhood is inflated
        by the inflow/outflow ratio, the reverse flows are deflated, the rest
        keeps its typical rate."""
        if self.is_infinite:
            raise ValueError("no drainable subset: most likely path undefined")
        mass, _, k = self._pass
        inside, bnd, lam, mu, _ = (c[..., k] for c in self._net.drainable)
        lam, mu, mass = float(lam), float(mu), float(mass[k])
        f = self._net.phi.copy()
        f[np.ix_(inside, ~bnd)] *= lam / mu
        f[np.ix_(~inside, bnd)] /= lam / mu
        return RatePath(f, self.critical_subsets[0], mass / (lam - mu),
                        kl_rate(f, self._net.phi))


@dataclass(frozen=True)
class RatePath:
    """Most likely demand-rate matrix draining a critical subset."""
    f_star: np.ndarray
    critical_subset: tuple
    drain_time: float
    kl_rate: float


def check_alpha(alpha, n: int) -> np.ndarray:
    """Validate a scaling vector: 1-D of length n, positive, sums to 1."""
    alpha = np.atleast_1d(np.asarray(alpha))
    if alpha.shape != (n,) or alpha.dtype.kind not in "iuf":   # no bool, str
        raise ValueError(f"alpha must be a vector of length {n} of numbers")
    alpha = alpha.astype(float)
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
    return _stats(*net.drainable[:4])


def _stats(members, boundary, lam, mu) -> list:
    return list(map(SubsetStats, mask_indices(members), mask_indices(boundary),
                    lam.tolist(), mu.tolist()))


def _pooled_subsets(net: Network):
    """Closed drainable columns and log ratios (Network.drainable).  J's
    closure drains too, with J's boundary, less lambda and more mu: its
    row implies J's.  A failed Hall check raises PoolingViolationError on
    the least slack subset, the first in hall_subsets order on ties."""
    slack, members, _ = net.hall
    if slack.min(initial=math.inf) <= 0:
        worst = int(slack.argmin())
        raise PoolingViolationError(mask_indices(members[:, [worst]])[0],
                                    float(slack[worst]))
    return net.drainable


def gamma(net: Network, alpha) -> ExponentResult:
    """Decay exponent of SMW(alpha): min over drainable subsets of
    (resting supply mass on the boundary) * log(inflow/outflow)."""
    alpha = check_alpha(alpha, net.n_supply)
    return _exponent(alpha, net, _pooled_subsets(net))


def _exponent(alpha, net, cols) -> ExponentResult:
    """gamma on a pooled net's Network.drainable columns, alpha checked."""
    members, boundary, _, _, log_ratio = cols
    # each mass adds alpha a node at a time in ascending order: sum()'s bits
    mass = masked_sum(boundary, alpha)
    contrib = mass * log_ratio
    best = float(contrib.min(initial=math.inf))
    crit = np.flatnonzero(contrib <= best * (1 + TIE_RTOL) + 1e-300)
    ranked = sorted(zip(mask_indices(members[:, crit]), crit.tolist()))
    first = ranked[0][1] if ranked else None    # rate_path's column
    return ExponentResult(best, tuple(s for s, _ in ranked),
                          (mass, contrib, first), net)


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
    _, boundary, _, _, log_ratio = cols = _pooled_subsets(net)
    if not log_ratio.size:
        a = uniform_alpha(n)
        return a, _exponent(a, net, cols)

    # variables: alpha_0..alpha_{n-1}, t; one row t - log_ratio * B(alpha) <= 0
    nv = n + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    a_ub = np.zeros((log_ratio.size, nv))
    a_ub[:, :n] = np.where(boundary.T, -log_ratio[:, None], 0.0)
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
    return alpha, _exponent(check_alpha(alpha, n), net, cols)


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
    """``gamma(net, alpha).rate_path()``: see ExponentResult.rate_path."""
    return gamma(net, alpha).rate_path()


def lyapunov(alpha, x) -> float:
    """Distance-to-boundary potential: 1 - min_i x_i / alpha_i.

    Zero exactly at the resting point x = alpha, one when some queue is
    empty.  x must lie on the simplex within 1e-9; check_alpha checks alpha.
    """
    x = np.atleast_1d(np.array(x, dtype=float))
    if not (np.all(x >= -SIMPLEX_TOL) and abs(x.sum() - 1.0) <= SIMPLEX_TOL):
        raise ValueError("x must be a point on the simplex")   # nan too
    alpha = check_alpha(alpha, x.size)
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
