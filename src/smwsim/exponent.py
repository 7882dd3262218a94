"""Large-deviations analysis of scaled MaxWeight dispatch.

Closed-form decay exponent of the demand-drop probability, the
exponent-optimal scaling vector, critical demand subsets, the most likely
demand-rate matrix draining a critical subset, the KL rate of an atypical
rate matrix, and the min-drift variational speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, solve_lp
from .network import (
    DEFAULT_SUBSET_CAP,
    Network,
    mask_indices,
    masked_sum,
    subset_table,
    validate_network,
)

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ExponentResult:
    gamma: float                  # math.inf when no subset is drainable
    critical_subsets: tuple       # argmin subsets (members tuples)
    per_subset: tuple             # (SubsetStats, boundary mass, contribution)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.gamma)

    def to_json(self) -> dict:
        return {
            "gamma": "inf" if self.is_infinite else self.gamma,
            "critical_subsets": [list(s) for s in self.critical_subsets],
            "per_subset": [
                {"subset": list(st.members), "boundary": list(st.boundary),
                 "lambda": st.lambda_rate, "mu": st.mu_rate,
                 "B": b, "contribution": c}
                for (st, b, c) in self.per_subset
            ],
        }


@dataclass(frozen=True)
class RatePath:
    """Most likely demand-rate matrix draining a critical subset."""
    f_star: np.ndarray
    critical_subset: tuple
    drain_time: float
    kl_rate: float


def check_alpha(alpha, n: int, eps_floor: float = 0.0) -> np.ndarray:
    """Validate a scaling vector: positive, length n, sums to 1."""
    alpha = np.atleast_1d(np.array(alpha, dtype=float))
    if alpha.size != n:
        raise ValueError(f"alpha must have length {n}")
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise ValueError("alpha must sum to 1")
    if np.any(alpha < max(eps_floor, np.finfo(float).tiny)):
        raise ValueError("alpha entries must be strictly positive")
    return alpha


def uniform_alpha(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def drainable_subsets(net: Network, cap: int = DEFAULT_SUBSET_CAP):
    """All nonempty strict demand subsets with positive drain rate.

    A subset is drainable when some of its demand carries supply to a
    destination outside its neighborhood (mu_rate > 0).
    """
    members, nbrs = subset_table(net, cap)
    others, outside, size = ~members, ~nbrs, members.shape[1]
    pairs = [(j, k) for j in range(net.n_demand) for k in range(net.n_supply)]
    mu = masked_sum(((members[j] & outside[k], net.phi[j, k])
                     for j, k in pairs), size)
    lam = masked_sum(((others[j] & nbrs[k], net.phi[j, k])
                      for j, k in pairs), size)
    return [SubsetStats(mask_indices(members[:, s]), mask_indices(nbrs[:, s]),
                        float(lam[s]), float(mu[s]))
            for s in np.flatnonzero(mu > 0.0)]


def _require_pooling(net: Network):
    report = validate_network(net)
    if not report.crp_holds:
        J, slack = min(report.violating_subsets, key=lambda t: t[1])
        raise PoolingViolationError(J, slack)


def gamma(net: Network, alpha) -> ExponentResult:
    """Decay exponent of SMW(alpha): min over drainable subsets of
    (resting supply mass on the boundary) * log(inflow/outflow)."""
    alpha = check_alpha(alpha, net.n_supply)
    _require_pooling(net)
    return _gamma(alpha, drainable_subsets(net))


def _gamma(alpha, subsets) -> ExponentResult:
    """gamma on a pooled network's drainable subsets, alpha already checked."""
    if not subsets:
        return ExponentResult(math.inf, (), ())
    per = []
    for st in subsets:
        b_mass = float(sum(alpha[i] for i in st.boundary))
        per.append((st, b_mass, b_mass * st.log_ratio))
    best = min(c for (_, _, c) in per)
    crit = tuple(sorted(st.members for (st, _, c) in per
                        if c <= best * (1 + TIE_RTOL) + 1e-300))
    return ExponentResult(float(best), crit, tuple(per))


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
    _require_pooling(net)
    subsets = drainable_subsets(net)
    if not subsets:
        a = uniform_alpha(n)
        return a, _gamma(a, subsets)

    # variables: alpha_0..alpha_{n-1}, t; one row t - log_ratio * B(alpha) <= 0
    nv = n + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    sizes = [len(st.boundary) for st in subsets]
    rows = np.repeat(np.arange(len(subsets)), sizes)
    cols = np.concatenate([st.boundary for st in subsets])
    a_ub = np.zeros((len(subsets), nv))
    a_ub[:, -1] = 1.0
    a_ub[rows, cols] = np.repeat([-st.log_ratio for st in subsets], sizes)
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = 1.0
    lower = np.full(nv, eps_floor)
    lower[-1] = -np.inf
    sol = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=np.zeros(len(subsets)),
                                 a_eq=a_eq, b_eq=np.array([1.0]), lower=lower))
    if sol.status != "optimal":
        raise RuntimeError(f"optimal-alpha LP returned {sol.status}")
    alpha = sol.x[:n] / sol.x[:n].sum()
    return alpha, _gamma(check_alpha(alpha, n), subsets)


def kl_rate(f, phi) -> float:
    """Large-deviations cost per unit time of arrival-rate matrix f.

    Kullback-Leibler divergence of f from phi when f is a distribution
    (0 log 0 = 0); +inf when f is signed, unnormalized, or puts mass
    where phi has none.
    """
    f = np.array(f, dtype=float)
    phi = np.array(phi, dtype=float)
    if np.any(f < 0) or abs(f.sum() - 1.0) > 1e-9:
        return math.inf
    if np.any((f > 0) & (phi == 0)):
        return math.inf
    mask = f > 0
    return float(np.sum(f[mask] * np.log(f[mask] / phi[mask])))


def most_likely_path(net: Network, alpha) -> RatePath:
    """Exponentially twisted rate matrix that drains a critical subset.

    The critical subset is the lexicographically smallest argmin; demand
    from inside it to outside its neighborhood is inflated by the
    inflow/outflow ratio, the reverse flows are deflated, everything else
    is left at its typical rate.
    """
    alpha = check_alpha(alpha, net.n_supply)
    res = gamma(net, alpha)
    if res.is_infinite:
        raise ValueError("no drainable subset: most likely path undefined")
    jstar = res.critical_subsets[0]
    st = next(s for (s, _, _) in res.per_subset if s.members == jstar)
    bset, jset = set(st.boundary), set(jstar)
    ratio = st.lambda_rate / st.mu_rate
    f = net.phi.copy()
    for j in range(net.n_demand):
        for k in range(net.n_supply):
            if j in jset and k not in bset:
                f[j, k] *= ratio
            elif j not in jset and k in bset:
                f[j, k] /= ratio
    b_mass = float(sum(alpha[i] for i in st.boundary))
    drain_time = b_mass / (st.lambda_rate - st.mu_rate)
    return RatePath(f, jstar, drain_time, kl_rate(f, net.phi))


def lyapunov(alpha, x) -> float:
    """Distance-to-boundary potential: 1 - min_i x_i / alpha_i.

    Zero exactly at the resting point x = alpha, one when some queue is
    empty.  x must lie on the simplex within 1e-9.
    """
    alpha = np.atleast_1d(np.array(alpha, dtype=float))
    x = np.atleast_1d(np.array(x, dtype=float))
    if x.size != alpha.size or np.any(x < -SIMPLEX_TOL) \
            or abs(x.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError("x must be a point on the simplex")
    return float(1.0 - np.min(x / alpha))


def min_drift_speed(net: Network, alpha, f) -> float:
    """Minimum growth rate of the potential under arrival rates f.

    Over all fractional assignment rules d (one distribution over the
    compatible supply nodes per demand node), the attainable state change
    in unit time is Delta_i = inflow_i - assigned outflow_i; the speed is
    min over d of max_i(-Delta_i / alpha_i).  Solved as one LP.
    """
    alpha = check_alpha(alpha, net.n_supply)
    f = np.array(f, dtype=float)
    if np.any(f < 0) or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError("f must be a nonnegative matrix summing to 1")
    n, m = net.n_supply, net.n_demand
    ei, ej = np.array(sorted(net.edges)).T
    nv = ei.size + 1               # d variables then t
    t_col = nv - 1
    row_mass = f.sum(axis=1)       # total rate per demand node
    inflow = f.sum(axis=0)         # supply inflow per node
    d = np.arange(ei.size)

    # sum_i d_{i j} = 1 per demand node
    a_eq = np.zeros((m, nv))
    a_eq[ej, d] = 1.0

    # t >= -Delta_i/alpha_i  <=>  (sum_j d_ij rowmass_j - inflow_i)/alpha_i - t <= 0
    a_ub = np.zeros((n, nv))
    a_ub[:, t_col] = -1.0
    a_ub[ei, d] = row_mass[ej] / alpha[ei]
    lower = np.zeros(nv)
    lower[t_col] = -np.inf
    c = np.zeros(nv)
    c[t_col] = -1.0                # maximize -t = minimize t
    sol = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=inflow / alpha,
                                 a_eq=a_eq, b_eq=np.ones(m), lower=lower))
    if sol.status != "optimal":
        raise RuntimeError(f"min-drift LP returned {sol.status}")
    return float(sol.x[t_col])
