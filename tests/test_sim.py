import math
from itertools import chain, islice

import numpy as np
import pytest

from smwsim import (
    FluidPolicy,
    PriorityPolicy,
    SmwPolicy,
    TimedConfig,
    estimate_exponent,
    fleet_requirement,
    run_jump_chain,
    run_timed,
    solve_transportation,
    vanilla_policy,
)
from smwsim.network import NetworkError, build_network
from smwsim.policies import NO_COMPATIBLE_SUPPLY, POLICY_DECLINED
from smwsim.sim import (_SAMPLE_BLOCK, _arrival_blocks, draw_events,
                        fluid_flow, proportional_init)
from smwsim.instances import example1, random_crp, symmetric_ring


def test_proportional_init():
    assert proportional_init([0.5, 0.5], 5).sum() == 5
    assert np.array_equal(proportional_init([0.999, 0.001], 10), [10, 0])
    assert np.array_equal(proportional_init([0.25, 0.75], 4), [1, 3])


def largest_remainders(weights, K):
    """One placement, as the scalar reference of proportional_init."""
    w = np.array(weights, dtype=float)
    w = w / w.sum()
    exact = w * K
    base = np.floor(exact).astype(np.int64)
    short = K - int(base.sum())
    if short > 0:
        order = np.argsort(-(exact - base))
        base[order[:short]] += 1
    return base


def test_rowwise_proportional_init_equals_each_row():
    rng = np.random.default_rng(5)
    # equal weights tie every remainder; [3, 1, 1, 3] ties them in pairs
    weights = np.vstack([np.ones((2, 4)), [[3, 1, 1, 3], [1, 2, 2, 0]],
                         rng.dirichlet(np.ones(4), 40),
                         rng.dirichlet(np.full(4, 0.1), 40)])
    for K in (0, 1, 2, 3, 7, 10, 101):
        got = proportional_init(weights, K)
        assert got.shape == weights.shape and got.dtype == np.int64
        for w, row in zip(weights, got):
            ref = largest_remainders(w, K)
            assert row.tolist() == ref.tolist() == proportional_init(w, K)\
                .tolist()


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


@pytest.mark.parametrize("steps", [15_000, 70_000])
def test_draw_events_is_the_sampler_stream(steps):
    """Blocks of min(block, steps left) events, and the timed loop's
    chunked gaps, replay one scalar gap and one event per arrival."""
    assert 15_000 < _SAMPLE_BLOCK < 70_000  # within one block, across two
    net = random_crp(3, seed=1)
    n = net.phi.shape[1]
    flat = draw_events(net, np.random.default_rng(9), steps)
    rng = np.random.default_rng(9)
    blocks = [draw_events(net, rng, min(_SAMPLE_BLOCK, steps - lo))
              for lo in range(0, steps, _SAMPLE_BLOCK)]
    assert np.array_equal(np.concatenate(blocks), flat)

    # scalar reference: the first gap, then per arrival its event (a new
    # block when the last is used up) and the gap to the next arrival
    rng, scalar = np.random.default_rng(9), []
    first = rng.exponential(0.5)
    for i in range(steps):
        if i % _SAMPLE_BLOCK == 0:
            block = draw_events(net, rng, _SAMPLE_BLOCK).tolist()
        scalar.append((divmod(block[i % _SAMPLE_BLOCK], n),
                       rng.exponential(0.5)))
    rng = np.random.default_rng(9)
    assert rng.exponential(0.5) == first
    stream = chain.from_iterable(_arrival_blocks(net, rng, 0.5, True))
    assert list(islice(stream, steps)) == scalar


def zero_rate_types():
    """Demand types of zero rate between positive ones, and a last zero."""
    phi = np.array([[0, 2, 1, 0], [1, 0, 0, 0], [0, 3, 1, 0], [0, 0, 5, 0]])
    return build_network(4, 4, [(i, i) for i in range(4)], phi)


@pytest.mark.parametrize("make", [
    example1, lambda: symmetric_ring(10), lambda: random_crp(30, 0),
    zero_rate_types, lambda: symmetric_ring(4)],   # 16 cdf steps of 1/16
    ids=["example1", "ring10", "crp30", "zero-rates", "ring4"])
def test_draw_events_is_generator_choice(make):
    # the guide table gives choice's values and dtype, and leaves the
    # generator where choice leaves it; this fails if choice changes
    net = make()
    p = net.phi.ravel()
    for seed in range(3):
        for size in (1, 7, 4096, 65_536):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = draw_events(net, a, size)
            want = b.choice(p.size, size=size, p=p)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert a.random() == b.random()


def test_timed_requires_travel_matrix():
    net = example1()
    with pytest.raises(ValueError, match="travel time"):
        run_timed(net, vanilla_policy(net), TimedConfig(1.0, 100, 2))


def test_timed_horizon_too_short():
    net = example1(with_times=True)
    cfg = TimedConfig(1.0, 100, 2, warmup_frac=1.0)
    with pytest.raises(ValueError, match="warmup"):
        run_timed(net, vanilla_policy(net), cfg)


@pytest.mark.parametrize("frac", [-0.5, math.nan])
def test_timed_rejects_warmup_outside_the_horizon(frac):
    # a negative warmup would divide the in-transit area by more than the
    # horizon and read the mean in transit low
    net = example1(with_times=True)
    cfg = TimedConfig(1.0, 100, 2, warmup_frac=frac)
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


def test_more_demand_than_supply_nodes_fail_alike_in_timed_and_fleet():
    # demand node j is supply zone j; a third demand node has no zone, so
    # the build refuses any time matrix that a timed run or fleet sizing reads
    args = (2, 3, [(i, j) for i in range(2) for j in range(3)], np.ones((3, 2)))
    times = [[0.0, 5.0], [5.0, 0.0]]
    errors = []
    for kw in ({"travel_time": times}, {"pickup_time": times},
               {"travel_time": times, "pickup_time": times}):
        with pytest.raises(NetworkError, match="n_demand <= n_supply") as exc:
            build_network(*args, **kw)
        errors.append(str(exc.value))
    assert len(set(errors)) == 1
    net = build_network(*args)     # without times: no zones to map
    for run in (lambda: fleet_requirement(net, 1.0),
                lambda: run_timed(net, vanilla_policy(net),
                                  TimedConfig(1.0, 100.0, 4))):
        with pytest.raises(ValueError, match="requires a travel time matrix"):
            run()


def test_fleet_requirement_matches_bruteforce():
    city = symmetric_ring(6, with_times=True)
    fr = fleet_requirement(city, 2.0)
    brute = sum(2.0 * city.phi[j, k] * city.travel_time[j, k]
                for j in range(6) for k in range(6))
    assert fr.k_in_transit == pytest.approx(brute, abs=1e-9)


@pytest.mark.parametrize("net, cost", [
    (symmetric_ring(4, with_times=True),
     symmetric_ring(4, with_times=True).pickup_time),
    (example1(), np.zeros((2, 2))),
])
def test_fluid_flow_is_the_min_pickup_cost_transportation(net, cost):
    direct = solve_transportation(net.col_rates(), net.row_rates(), cost,
                                  support=list(net.edges))
    assert fluid_flow(net).tobytes() == direct.tobytes()


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


def test_estimate_exponent_rejects_a_nan_point():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        estimate_exponent([(1, .5), (2, .25), (3, math.nan), (4, .0625)])


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_timed_config_rejects_a_rate_that_stalls_the_clock(rate):
    with pytest.raises(ValueError, match="total_rate"):
        TimedConfig(rate, 50.0, 5)


@pytest.mark.parametrize("rate", [-2.0, math.inf, math.nan])
def test_fleet_requirement_rejects_a_negative_or_nonfinite_rate(rate):
    with pytest.raises(ValueError, match="total_rate"):
        fleet_requirement(symmetric_ring(4, with_times=True), rate)


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
    return SmwPolicy(net, alpha, 0.2)


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
    ("jump", "fluid", "crp3", 4): (3600, 777, None, [
        "0x1.ba06d3a06d3a0p-3", "0x1.22a7a1f19690ep-2",
        "0x1.5b425ed097b42p-2", "0x1.8215ff3dd1bb0p-2", None, None]),
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


def _block_run(cell):
    mode, kind, seed = cell[0], cell[1], cell[-1]
    if mode == "jump":
        net = symmetric_ring(6)
        steps, warmup = cell[2:4]
        rep = run_jump_chain(net, _pin_policy(net, kind), 12, steps,
                             warmup=warmup, seed=seed)
    else:
        net = random_crp(3, seed=2, with_times=True)
        pol = _pin_policy(net, kind, decline=0.2 if kind == "fluid" else 0.0)
        rep = run_timed(net, pol, TimedConfig(2.0, 70000.0, 12),
                        with_pickup=True, seed=seed)
    fields = [rep.drop_fraction, *rep.occupancy_mean, rep.mean_in_transit,
              rep.mean_trip_minutes]
    return (rep.arrivals, rep.drops, rep.served,
            [None if v is None else float(v).hex() for v in fields],
            rep.drops_by_reason)


# Runs that cross _SAMPLE_BLOCK: about 140k timed arrivals, a jump warmup
# that ends inside the second block, and exactly two blocks with no
# warmup.  Recorded from the simulators that drew one exponential gap per
# arrival and one event at a time from a block-buffered generator.
PINNED_BLOCKS = {
    ("timed+pickup", "vanilla", 21): (111576, 72444, 39132, [
        "0x1.4c6e59fa29bd6p-1", "0x1.2b30961277201p-5",
        "0x1.8d02c267f39ddp-5", "0x1.dcbeeb2794768p-9",
        "0x1.52bc332666a14p+3", "0x1.e4c80c131e5d8p+3"],
        {NO_COMPATIBLE_SUPPLY: 72444}),
    ("timed+pickup", "fluid", 22): (112280, 66768, 45512, [
        "0x1.3076c79554f1bp-1", "0x1.24837fc284c6ap-4",
        "0x1.10e57c25f6b8dp-4", "0x1.e684c0658f9acp-5",
        "0x1.27135a12c255fp+3", "0x1.6b10c810c81dcp+3"],
        {NO_COMPATIBLE_SUPPLY: 44344, POLICY_DECLINED: 22424}),
    ("timed+pickup", "smw-pickup", 23): (111971, 70706, 41265, [
        "0x1.434fa7126385ep-1", "0x1.fe1266d6eebf3p-6",
        "0x1.68cf42e391795p-5", "0x1.0481399ec8e44p-7",
        "0x1.5451445209684p+3", "0x1.cdce82938cd87p+3"],
        {NO_COMPATIBLE_SUPPLY: 70706}),
    ("jump", "vanilla", 200_000, 70_000, 31): (130000, 71, None, [
        "0x1.1e57874334b66p-11", "0x1.9e552d00e4893p-3",
        "0x1.81404944112eap-3", "0x1.61f56f362ec74p-3",
        "0x1.44f8be236f86dp-3", "0x1.284d62053af37p-3",
        "0x1.112efa5c3106ap-3", None, None],
        {NO_COMPATIBLE_SUPPLY: 71}),
    ("jump", "vanilla", 131_072, 0, 32): (131072, 49, None, [
        "0x1.8800000000000p-12", "0x1.9d78000000000p-3",
        "0x1.7f4b000000000p-3", "0x1.6428aaaaaaaabp-3",
        "0x1.45b4555555555p-3", "0x1.28b2aaaaaaaabp-3",
        "0x1.10ad555555555p-3", None, None],
        {NO_COMPATIBLE_SUPPLY: 49}),
    ("jump", "fluid", 200_000, 70_000, 31): (130000, 38193, None, [
        "0x1.2cd7e4056b58cp-2", "0x1.55e124ba3b416p-3",
        "0x1.4e9180a55a34ep-3", "0x1.5b95157a4d676p-3",
        "0x1.5027d362966afp-3", "0x1.548954df084ecp-3",
        "0x1.5b471ce47e68bp-3", None, None],
        {NO_COMPATIBLE_SUPPLY: 38193}),
    ("jump", "fluid", 131_072, 0, 32): (131072, 38343, None, [
        "0x1.2b8e000000000p-2", "0x1.41a0000000000p-3",
        "0x1.5f07aaaaaaaabp-3", "0x1.6b61555555555p-3",
        "0x1.47b0555555555p-3", "0x1.4797000000000p-3",
        "0x1.64afaaaaaaaabp-3", None, None],
        {NO_COMPATIBLE_SUPPLY: 38343}),
}


@pytest.mark.parametrize("cell", list(PINNED_BLOCKS),
                         ids=lambda c: "/".join(map(str, c)))
def test_outputs_pinned_across_sample_blocks(cell):
    assert 131_072 == 2 * _SAMPLE_BLOCK < 140_000   # 2.0/min * 70000 min
    assert _block_run(cell) == PINNED_BLOCKS[cell]
