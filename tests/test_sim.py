import math

import numpy as np
import pytest

from smwsim import (
    FluidPolicy,
    PriorityPolicy,
    SmwPickupPolicy,
    SmwPolicy,
    TimedConfig,
    estimate_exponent,
    fleet_requirement,
    run_jump_chain,
    run_timed,
    solve_transportation,
    vanilla_policy,
)
from smwsim.network import build_network
from smwsim.policies import NO_COMPATIBLE_SUPPLY, POLICY_DECLINED
from smwsim.sim import proportional_init
from smwsim.instances import example1, random_crp, symmetric_ring


def test_proportional_init():
    assert proportional_init([0.5, 0.5], 5).sum() == 5
    assert np.array_equal(proportional_init([0.999, 0.001], 10), [10, 0])
    assert np.array_equal(proportional_init([0.25, 0.75], 4), [1, 3])


def test_jump_chain_k1_stationary_value():
    net = example1()
    rep = run_jump_chain(net, SmwPolicy(net, [0.5, 0.5]), K=1,
                         steps=10**6, warmup=10**5, seed=11)
    assert rep.drop_fraction == pytest.approx(0.3, abs=0.004)
    assert rep.drops <= rep.arrivals
    assert rep.arrivals == 10**6 - 10**5


def test_jump_chain_no_supply():
    net = example1()
    rep = run_jump_chain(net, vanilla_policy(net), K=0, steps=2000,
                         warmup=100, seed=0)
    assert rep.drop_fraction == 1.0


def test_jump_chain_reproducible():
    net = example1()
    a = run_jump_chain(net, vanilla_policy(net), 5, 20000, seed=9)
    b = run_jump_chain(net, vanilla_policy(net), 5, 20000, seed=9)
    assert a.drops == b.drops and a.arrivals == b.arrivals
    assert np.array_equal(a.occupancy_mean, b.occupancy_mean)


def test_jump_chain_conservation_and_init_validation():
    net = example1()
    run_jump_chain(net, vanilla_policy(net), 4, 5000, seed=1,
                   check_conservation=True)
    with pytest.raises(ValueError, match="sum to K"):
        run_jump_chain(net, vanilla_policy(net), 4, 100, init=[1, 1])


def test_occupancy_concentrates_at_alpha():
    net = example1()
    alpha = np.array([0.7, 0.3])
    pol = SmwPolicy(net, alpha)
    d20 = np.max(np.abs(
        run_jump_chain(net, pol, 20, 200_000, seed=2).occupancy_mean - alpha))
    d200 = np.max(np.abs(
        run_jump_chain(net, pol, 200, 200_000, seed=2).occupancy_mean - alpha))
    assert d200 < d20


def test_timed_zero_delays_matches_jump_chain():
    net = symmetric_ring(4)
    z = build_network(4, 4, list(net.edges), net.phi,
                      np.zeros((4, 4)), np.zeros((4, 4)))
    K = 6
    jump = run_jump_chain(z, vanilla_policy(z), K, 400_000, seed=3)
    timed = run_timed(z, vanilla_policy(z), TimedConfig(1.0, 400_000, K),
                      seed=4)
    p1, n1 = jump.drop_fraction, jump.arrivals
    p2, n2 = timed.drop_fraction, timed.arrivals
    pool = (jump.drops + timed.drops) / (n1 + n2)
    se = math.sqrt(pool * (1 - pool) * (1 / n1 + 1 / n2))
    assert abs(p1 - p2) <= 3 * se + 1e-12


def test_timed_littles_law():
    city = symmetric_ring(6, with_times=True)
    fr = fleet_requirement(city, 2.0)
    cfg = TimedConfig(2.0, 30000, fr.k_fl + 60)
    rep = run_timed(city, vanilla_policy(city), cfg, with_pickup=True,
                    seed=5, check_conservation=True)
    throughput = (1 - rep.drop_fraction) * 2.0
    assert rep.mean_in_transit / throughput == pytest.approx(
        rep.mean_trip_minutes, rel=0.02)


def test_timed_fleet_monotonicity():
    city = symmetric_ring(6, with_times=True)
    fr = fleet_requirement(city, 2.0)
    drops = []
    for slack in (0, 40):
        cfg = TimedConfig(2.0, 20000, fr.k_fl + slack)
        rep = run_timed(city, vanilla_policy(city), cfg, with_pickup=True,
                        seed=6)
        drops.append(rep.drop_fraction)
    assert drops[0] > drops[1]


def test_negative_fleet_size_rejected():
    net = example1(with_times=True)
    with pytest.raises(ValueError, match="K=-1"):
        run_jump_chain(net, vanilla_policy(net), -1, 1000)
    with pytest.raises(ValueError, match="K=-1"):
        run_timed(net, vanilla_policy(net), TimedConfig(1.0, 100, -1))


def test_timed_requires_travel_matrix():
    net = example1()
    with pytest.raises(ValueError, match="travel time"):
        run_timed(net, vanilla_policy(net), TimedConfig(1.0, 100, 2))


def test_timed_horizon_too_short():
    net = example1(with_times=True)
    cfg = TimedConfig(1.0, 100, 2, warmup_frac=1.0)
    with pytest.raises(ValueError, match="warmup"):
        run_timed(net, vanilla_policy(net), cfg)


def test_fleet_requirement_values():
    # one origin, rate 1/min, 10-minute trip: 10 cars in transit
    net = build_network(2, 1, [(0, 0), (1, 0)], [[0.0, 1.0]],
                        travel_time=[[0.0, 10.0], [10.0, 0.0]])
    fr = fleet_requirement(net, 1.0)
    assert fr.k_in_transit == pytest.approx(10.0)
    assert fr.k_pickup == 0.0
    assert fr.k_fl == 10

    zero = build_network(2, 1, [(0, 0), (1, 0)], [[0.0, 1.0]],
                         travel_time=np.zeros((2, 2)))
    assert fleet_requirement(zero, 1.0).k_in_transit == 0.0


def test_fleet_requirement_matches_bruteforce():
    city = symmetric_ring(6, with_times=True)
    fr = fleet_requirement(city, 2.0)
    brute = sum(2.0 * city.phi[j, k] * city.travel_time[j, k]
                for j in range(6) for k in range(6))
    assert fr.k_in_transit == pytest.approx(brute, abs=1e-9)


def test_estimate_exponent_exact_decay():
    curve = [(K, math.exp(-0.7 * K)) for K in range(5, 30, 5)]
    slope, r2 = estimate_exponent(curve)
    assert slope == pytest.approx(0.7, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_estimate_exponent_polynomial_decay():
    curve = [(K, 1.0 / K**2) for K in range(10, 70, 10)]
    slope, r2 = estimate_exponent(curve)
    assert slope < 0.1
    assert r2 < 0.95   # visible curvature


def test_estimate_exponent_censored_points():
    with pytest.warns(UserWarning, match="censored"):
        with pytest.raises(ValueError, match="3 usable"):
            estimate_exponent([(10, 0.0), (20, 0.1), (30, 0.05)])


def _pin_policy(net, kind, decline=0.0):
    n = net.n_supply
    alpha = np.arange(1, n + 1) / (n * (n + 1) / 2)
    if kind == "vanilla":
        return vanilla_policy(net)
    if kind == "smw":
        return SmwPolicy(net, alpha)
    if kind == "priority":
        return PriorityPolicy(net, [sorted(net.supply_neighbors(j), reverse=True)
                                    for j in range(net.n_demand)])
    if kind == "fluid":
        cost = np.zeros((n, net.n_demand)) if net.pickup_time is None \
            else net.pickup_time
        return FluidPolicy(net, (1.0 - decline) * solve_transportation(
            net.col_rates(), net.row_rates(), cost, support=list(net.edges)))
    return SmwPickupPolicy(net, alpha, 0.2)


def _pin_run(cell):
    mode, kind, name, seed = cell
    net = example1(with_times=True) if name == "example1" else \
        random_crp(3, seed=2, with_times=True)
    pol = _pin_policy(net, kind)
    if mode == "jump":
        rep = run_jump_chain(net, pol, 6, 4000, seed=seed,
                             warmup=0 if seed % 2 else None)
    else:
        rep = run_timed(net, pol, TimedConfig(2.0, 1500.0, 12),
                        with_pickup=mode == "timed+pickup", seed=seed)
    assert sum(rep.drops_by_reason.values()) == rep.drops
    fields = [rep.drop_fraction, *rep.occupancy_mean, rep.mean_in_transit,
              rep.mean_trip_minutes]
    return (rep.arrivals, rep.drops, rep.served,
            [None if v is None else float(v).hex() for v in fields])


# (arrivals, drops, served, float.hex of drop_fraction, occupancy_mean...,
# mean_in_transit, mean_trip_minutes) as the simulators gave them when
# they kept queues and occupancy in numpy arrays and drew the fluid
# dispatch with Generator.choice.  Any drift in a draw, a tie-break or a
# float operation fails here.
PINNED = {
    ("jump", "vanilla", "example1", 1): (4000, 143, None, [
        "0x1.24dd2f1a9fbe7p-5", "0x1.d0b9af72015d8p-2",
        "0x1.17a32846ff514p-1", None, None]),
    ("jump", "smw", "crp3", 2): (3600, 501, None, [
        "0x1.1d0369d0369d0p-3", "0x1.06c77d88e99fbp-2",
        "0x1.04cfd585e0e69p-1", "0x1.df31aed6a9265p-3", None, None]),
    ("jump", "priority", "crp3", 3): (4000, 1709, None, [
        "0x1.b5810624dd2f2p-2", "0x1.3c54a6921735fp-2",
        "0x1.4d7b900aec33ep-1", "0x1.45a1cac083127p-5", None, None]),
    ("jump", "fluid", "crp3", 4): (3600, 831, None, [
        "0x1.d8bf258bf258cp-3", "0x1.16b549327104fp-2",
        "0x1.4dd7cc6bb5aa5p-2", "0x1.9b72ea61d950dp-2", None, None]),
    ("jump", "smw-pickup", "example1", 5): (4000, 225, None, [
        "0x1.ccccccccccccdp-5", "0x1.3978d4fdf3b64p-2",
        "0x1.634395810624ep-1", None, None]),
    ("timed", "vanilla", "example1", 6): (2409, 635, 1774, [
        "0x1.0debcf1ddc81ap-2", "0x1.b61bb35861333p-5",
        "0x1.9d987eabf11f6p-4", "0x1.2e882e04cd932p+3",
        "0x1.9a1e97cf8351bp+2"]),
    ("timed+pickup", "smw", "crp3", 7): (2460, 1590, 870, [
        "0x1.4aed44aed44afp-1", "0x1.044d259a27aefp-5",
        "0x1.325e1325e1326p-5", "0x1.91d46e729c3c8p-8",
        "0x1.573293816de96p+3", "0x1.d901d43e73353p+3"]),
    ("timed+pickup", "priority", "crp3", 8): (2372, 1549, 823, [
        "0x1.4e5aa85d3f75ep-1", "0x1.6c11d7fed94a6p-5",
        "0x1.e9437d567c0afp-5", "0x1.cc7bc14256a0ep-10",
        "0x1.4c07dd8001dcfp+3", "0x1.e36915aac691cp+3"]),
    ("timed", "fluid", "crp3", 9): (2376, 947, 1429, [
        "0x1.98227a65b5df4p-2", "0x1.94418227a65b6p-4",
        "0x1.5a37bd57a1c28p-4", "0x1.15fad40a57eb5p-4",
        "0x1.0cf9a8990b3c3p+3", "0x1.c3da7f2f7b2c0p+2"]),
    ("timed+pickup", "fluid", "example1", 10): (2378, 1417, 961, [
        "0x1.311709b0561f7p-1", "0x1.a7b9611a7b961p-6",
        "0x1.995ece8d190c2p-5", "0x1.563f05fb87444p+3",
        "0x1.aafd11d91b702p+3"]),
    ("timed+pickup", "smw-pickup", "crp3", 11): (2381, 1471, 910, [
        "0x1.3c514893159c7p-1", "0x1.f00403957c539p-6",
        "0x1.3bac22d5f5e4bp-5", "0x1.d3eaed2f33494p-8",
        "0x1.57cd61937593ap+3", "0x1.c6606ba095651p+3"]),
}


@pytest.mark.parametrize("cell", list(PINNED),
                         ids=lambda c: "/".join(map(str, c)))
def test_outputs_pinned_bit_for_bit(cell):
    assert _pin_run(cell) == PINNED[cell]


def test_timed_run_without_measured_arrivals_reports_nan():
    net = example1(with_times=True)
    rep = run_timed(net, vanilla_policy(net), TimedConfig(1e-6, 100.0, 2),
                    seed=0)
    assert rep.arrivals == rep.drops == rep.served == 0
    assert math.isnan(rep.drop_fraction) and math.isnan(rep.mean_trip_minutes)
    assert rep.drops_by_reason == {}


@pytest.mark.parametrize("timed", [False, True])
def test_drops_by_reason(timed):
    net = random_crp(3, seed=2, with_times=True)

    def run(pol):
        if timed:
            return run_timed(net, pol, TimedConfig(2.0, 1500.0, 12),
                             with_pickup=True, seed=3)
        return run_jump_chain(net, pol, 3, 4000, seed=3)

    smw = run(_pin_policy(net, "smw"))
    assert smw.drops > 0
    assert smw.drops_by_reason == {NO_COMPATIBLE_SUPPLY: smw.drops}
    fluid = run(_pin_policy(net, "fluid", decline=0.2))
    assert fluid.drops_by_reason[POLICY_DECLINED] > 0
    assert fluid.drops_by_reason[NO_COMPATIBLE_SUPPLY] > 0
    assert sum(fluid.drops_by_reason.values()) == fluid.drops
