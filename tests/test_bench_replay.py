"""The benchmark records a digest of the `simulate` and `tune` results at
each seed; one set-up and one round must replay it (`simulate` at seeds 1,
4, 7 and 10, `tune`, which is cheap, at every recorded seed), so a change
that moves a simulation draw or a tuner decision fails here as well as in
the benchmark.  Reads the benchmark's files and writes none."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def replays(workloads, name, seed):
    wl = workloads.WORKLOADS[name]()
    state = wl.setup(seed)
    tally = workloads.Tally()
    rnd = workloads.run_round(wl, state, tally)
    assert tally.failures == []
    out = wl.check(state, [rnd], seed)
    assert "replay_recorded" in out
    assert {k: v for k, v in out.items() if not v["ok"]} == {}


@pytest.mark.parametrize("name", ["simulate", "tune"])
def test_recorded_digest_replays_at_seed_1(workloads, name):
    replays(workloads, name, 1)


@pytest.mark.parametrize("seed", range(2, 11))
def test_recorded_tune_digest_replays_at_every_seed(workloads, seed):
    replays(workloads, "tune", seed)


@pytest.mark.parametrize("seed", [4, 7, 10])
def test_recorded_simulate_digest_replays_at_more_seeds(workloads, seed):
    replays(workloads, "simulate", seed)
