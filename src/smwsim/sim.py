"""Simulators: the discrete-time jump chain and a timed event-driven
variant with service and pickup delays, plus exponent estimation and
fleet-size accounting."""

from __future__ import annotations

import heapq
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .lp import solve_transportation
from .network import Network
from .policies import DROP, Policy

DEFAULT_JUMP_WARMUP_FRAC = 0.1
DEFAULT_TIMED_WARMUP_FRAC = 0.2
_SAMPLE_BLOCK = 1 << 16
_GAP_CHUNK = 1 << 12     # batched gaps drawn at a time, within a block


@dataclass
class SimReport:
    arrivals: int
    drops: int
    drop_fraction: float            # NaN when nothing arrived after warmup
    drop_fraction_by_origin: np.ndarray
    occupancy_mean: np.ndarray      # time-average normalized queue vector
    warmup_steps: int
    seed: int
    wall_time: float
    # measured drops by DispatchDecision.reason; sums to drops
    drops_by_reason: dict = field(default_factory=dict)
    # timed mode extras (None in jump mode)
    mean_in_transit: float | None = None
    served: int | None = None
    mean_trip_minutes: float | None = None

    def __post_init__(self):
        assert self.drops <= self.arrivals


@dataclass
class TimedConfig:
    total_rate: float               # arrivals per minute
    horizon_minutes: float
    k_tot: int
    warmup_frac: float = DEFAULT_TIMED_WARMUP_FRAC

    def __post_init__(self):
        if not 0 < self.total_rate < math.inf:     # nan fails too
            raise ValueError("total_rate must be positive and finite")


def proportional_init(weights, K: int) -> np.ndarray:
    """Integer placement of K units proportional to weights (largest
    remainders); 2-D weights give one placement per row."""
    w = np.array(weights, dtype=float)
    w = w / w.sum(axis=-1, keepdims=True)
    exact = w * K
    base = np.floor(exact).astype(np.int64)
    short = K - base.sum(axis=-1, keepdims=True)
    order = np.argsort(-(exact - base), axis=-1)
    return base + (np.argsort(order, axis=-1) < short)   # +1 to the top short


def _initial_queues(net: Network, policy: Policy, K: int, init) -> list:
    """Checked ``init``, n nonnegative integers summing to K, as a list of
    ints; default: K split by rest weights.  The policy must be net's own."""
    if policy.net is not net:
        raise ValueError("the policy was built on another net")
    n = net.n_supply
    if init is None:
        if K < 0:
            raise ValueError(f"fleet size K={K} must be nonnegative")
        return proportional_init(policy.rest_weights(), K).tolist()
    q = np.asarray(init)
    if q.shape != (n,) or q.dtype.kind not in "iuf" \
            or not np.all((np.floor(q) == q) & (q >= 0)):   # nan fails too
        raise ValueError(f"initial queues must be {n} nonnegative integers")
    if q.sum() != K:
        raise ValueError(f"initial queues must sum to K={K}, not {q.sum()}")
    return [int(x) for x in q.tolist()]      # exact, however large


def draw_events(net: Network, rng, size: int) -> np.ndarray:
    """``size`` draws of origin * n + dest from phi; calls extend a stream.
    Bit for bit ``rng.choice``'s: per uniform u, the count of cdf entries
    <= u, from a guide table over 2^k buckets of [0, 1) (u * 2^k is exact);
    only u in a bucket with a cdf entry strictly inside are searched."""
    cdf = np.cumsum(net.phi.ravel())
    cdf /= cdf[-1]
    buckets = max(64, 1 << (16 * cdf.size - 1).bit_length())
    edges = np.arange(buckets + 1) / buckets
    lo = cdf.searchsorted(edges[:-1], "right")
    guide = np.where(lo == cdf.searchsorted(edges[1:], "left"), lo, -1)
    u = rng.random(size)
    out = guide[(u * buckets).astype(np.intp)]
    hit = np.flatnonzero(out < 0)
    out[hit] = cdf.searchsorted(u[hit], "right")
    return out


def _arrival_blocks(net: Network, rng, scale: float, batched: bool):
    """Per chunk of a block, zip((origin, destination), gap to the next
    arrival), drawn in the order of one scalar gap per arrival; unless
    ``batched``, the gap is None and the caller draws it after dispatch.
    Gaps become floats one at a time, through a memoryview: a list of
    floats per chunk fragments the heap of a process that keeps reports."""
    pairs = [divmod(d, net.phi.shape[1]) for d in range(net.phi.size)]
    while True:
        codes = draw_events(net, rng, _SAMPLE_BLOCK).tolist()
        for lo in range(0, _SAMPLE_BLOCK, _GAP_CHUNK):
            gaps = memoryview(rng.exponential(scale, _GAP_CHUNK)) if batched \
                else repeat(None)
            yield zip(map(pairs.__getitem__, codes[lo:lo + _GAP_CHUNK]), gaps)
        del codes       # freed before the next block is drawn


def _report(t0, seed, warmup, arrivals_by_origin, drops_by_origin,
            drops_by_reason, q, acc, points, K, **timed) -> SimReport:
    """Assemble a SimReport.  A move at sample s adds s to ``acc`` at its
    destination and takes s from its source, so queue i summed over the
    ``points`` samples is q[i] * points - acc[i]."""
    occ = [x * points - a for x, a in zip(q, acc)]
    arrivals, drops = sum(arrivals_by_origin), sum(drops_by_origin)
    a = np.array(arrivals_by_origin)
    return SimReport(
        arrivals=arrivals, drops=drops,
        drop_fraction=drops / arrivals if arrivals else math.nan,
        drop_fraction_by_origin=np.where(
            a > 0, np.array(drops_by_origin) / np.maximum(a, 1), 0.0),
        occupancy_mean=np.array(occ, dtype=float) / (max(points, 1) * max(K, 1)),
        warmup_steps=warmup, seed=seed, wall_time=time.perf_counter() - t0,
        drops_by_reason=dict(drops_by_reason), **timed)


def run_jump_chain(net: Network, policy: Policy, K: int, steps: int,
                   warmup: int | None = None, seed: int = 0,
                   init=None, check_conservation: bool = False) -> SimReport:
    """Simulate the embedded chain: one demand arrival per step.

    Each step samples an (origin, destination) pair from phi and applies
    the policy; a served unit moves from its source queue to the
    destination.  Statistics are collected after ``warmup`` steps
    (default: 10% of steps).
    """
    t0 = time.perf_counter()
    if warmup is None:
        warmup = int(steps * DEFAULT_JUMP_WARMUP_FRAC)
    if not 0 <= warmup < steps:
        raise ValueError("need steps > warmup >= 0")
    n = net.n_supply
    q = _initial_queues(net, policy, K, init)

    rng = np.random.default_rng(seed)
    pairs = [divmod(d, net.phi.shape[1]) for d in range(net.phi.size)]
    measured = np.zeros(net.phi.size, dtype=np.int64)   # arrivals per code
    drops_by_origin = [0] * net.n_demand
    drops_by_reason = Counter()
    acc = [0] * n       # see _report
    dispatch = policy.dispatch

    # t counts measured steps; the warmup runs at t < 0
    for start in range(-warmup, steps - warmup, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, steps - warmup - start)
        codes = draw_events(net, rng, size)
        measured += np.bincount(codes[max(-start, 0):],
                                minlength=net.phi.size)
        for t, (origin, dest) in zip(range(start, start + size),
                                     map(pairs.__getitem__, codes.tolist())):
            dec = dispatch(q, origin, rng)
            src = dec.source
            if src != DROP:
                s = t if t > 0 else 0
                acc[src] -= s
                acc[dest] += s
                q[src] -= 1
                q[dest] += 1
            elif t >= 0:
                drops_by_origin[origin] += 1
                drops_by_reason[dec.reason] += 1
            if check_conservation:
                assert sum(q) == K and min(q) >= 0
        del codes       # freed before the next block is drawn

    return _report(t0, seed, warmup,
                   measured.reshape(net.phi.shape).sum(axis=1).tolist(),
                   drops_by_origin, drops_by_reason, q, acc, steps - warmup, K)


def run_timed(net: Network, policy: Policy, cfg: TimedConfig,
              with_pickup: bool = False, seed: int = 0,
              init=None, check_conservation: bool = False) -> SimReport:
    """Event-driven simulation with travel (and optionally pickup) delays.

    Poisson arrivals at cfg.total_rate with type distribution phi.  A
    dispatch from i for origin j and destination k removes a unit from
    queue i; it re-enters queue k after pickup_time[i, j] (when enabled)
    plus travel_time[j, k] minutes.  The first warmup_frac of the horizon
    is discarded.
    """
    t0 = time.perf_counter()
    if net.travel_time is None:     # build_network gives each demand a zone
        raise ValueError("timed mode requires a travel time matrix")
    if with_pickup and net.pickup_time is None:
        raise ValueError("with_pickup requires a pickup time matrix")

    n = net.n_supply
    q = _initial_queues(net, policy, cfg.k_tot, init)
    horizon = cfg.horizon_minutes
    warmup_t = cfg.warmup_frac * horizon
    if not 0 <= warmup_t < horizon:   # also rejects a NaN warmup_frac
        raise ValueError("need horizon > warmup >= 0")

    rng = np.random.default_rng(seed)
    travel = net.travel_time.tolist()
    pickup = net.pickup_time.tolist() if with_pickup else None
    scale = 1.0 / cfg.total_rate
    batched = not policy.randomized
    in_transit = []     # heap of (return time, destination)
    arrivals = served = 0   # measured arrivals are the occupancy samples
    arrivals_by_origin = [0] * net.n_demand
    drops_by_origin = [0] * net.n_demand
    drops_by_reason = Counter()
    acc = [0] * n       # see _report
    transit_area = 0.0   # time integral of in-transit count after warmup
    since = warmup_t     # counted up to here; event times never decrease
    trip_minutes = 0.0
    dispatch = policy.dispatch

    clock = rng.exponential(scale)      # drawn before the first block
    for (origin, dest), gap in chain.from_iterable(
            _arrival_blocks(net, rng, scale, batched)):
        if clock > horizon:
            break
        while in_transit and in_transit[0][0] <= clock:
            rt, k = heapq.heappop(in_transit)
            if rt > since:
                transit_area += (rt - since) * (len(in_transit) + 1)
                since = rt
            acc[k] += arrivals
            q[k] += 1
        if clock > since:
            transit_area += (clock - since) * len(in_transit)
            since = clock

        dec = dispatch(q, origin, rng)
        src = dec.source
        if src != DROP:
            acc[src] -= arrivals
            q[src] -= 1
            trip = travel[origin][dest]
            if with_pickup:
                trip += pickup[src][origin]
            heapq.heappush(in_transit, (clock + trip, dest))
        if clock > warmup_t:
            arrivals += 1
            arrivals_by_origin[origin] += 1
            if src == DROP:
                drops_by_origin[origin] += 1
                drops_by_reason[dec.reason] += 1
            else:
                served += 1
                trip_minutes += trip
        if check_conservation:
            assert sum(q) + len(in_transit) == cfg.k_tot and min(q) >= 0
        clock += gap if batched else rng.exponential(scale)
    if horizon > since:
        transit_area += (horizon - since) * len(in_transit)

    return _report(t0, seed, 0, arrivals_by_origin, drops_by_origin,
                   drops_by_reason, q, acc, arrivals, cfg.k_tot,
                   mean_in_transit=transit_area / (horizon - warmup_t),
                   served=served,
                   mean_trip_minutes=trip_minutes / served if served
                   else math.nan)


def fluid_flow(net: Network) -> np.ndarray:
    """Min-pickup-cost transportation flow (n x m) from supply inflow to
    demand rates over the edges; zero cost without pickup times."""
    cost = np.zeros((net.n_supply, net.n_demand))
    if net.pickup_time is not None:
        cost = net.pickup_time[:net.n_supply, :net.n_demand]
    return solve_transportation(net.col_rates(), net.row_rates(), cost,
                                list(net.edges))


@dataclass
class FleetRequirement:
    k_in_transit: float
    k_pickup: float
    k_fl: int   # ceil of the sum


def fleet_requirement(net: Network, total_rate: float) -> FleetRequirement:
    """Little's-law fleet sizing: mean cars in transit plus (when pickup
    times are present) the minimum mean cars en route to pickups."""
    if net.travel_time is None:
        raise ValueError("fleet sizing requires a travel time matrix")
    if not 0 <= total_rate < math.inf:         # nan fails too
        raise ValueError("total_rate must be nonnegative and finite")
    k_transit = total_rate * float(np.sum(net.phi * net.travel_time[
        :net.n_demand, :net.n_supply]))
    k_pickup = 0.0
    if net.pickup_time is not None:
        cost = net.pickup_time[:net.n_supply, :net.n_demand]
        k_pickup = total_rate * float(np.sum(fluid_flow(net) * cost))
    return FleetRequirement(k_transit, k_pickup,
                            int(math.ceil(k_transit + k_pickup)))


def estimate_exponent(drop_curve):
    """Least-squares slope of -ln(drop probability) against fleet size.

    Needs at least 3 usable points; zero probabilities are censored and
    excluded with a warning.  Returns (slope, r_squared).
    """
    pts = []
    for K, p in drop_curve:
        if p <= 0.0:
            warnings.warn(f"excluding censored point K={K} with p={p}",
                          stacklevel=2)
            continue
        if not p < 1.0:     # nan fails too
            raise ValueError("drop probabilities must lie in (0, 1)")
        pts.append((float(K), -math.log(p)))
    if len(pts) < 3:
        raise ValueError("need at least 3 usable points")
    x = np.array([k for k, _ in pts])
    y = np.array([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
