"""The benchmark's own gates, run once here: one set-up and one round of
`exact` and `alpha_lp` at seed 1 must pass every correctness check, and
one traced set-up and round of each workload, traced as `run.traced_run`
traces them, must fail no operation, pass every check and give every
per-layer metric that BENCHMARK.json names.  Reads the benchmark's files
and writes none."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, workloads


def failed_checks(wl, state, rounds):
    return {k: v for k, v in wl.check(state, rounds, 1).items()
            if not v["ok"]}


@pytest.mark.parametrize("name", ["exact", "alpha_lp"])
def test_checks_pass_at_seed_1(bench, name):
    _, workloads = bench
    wl = workloads.WORKLOADS[name]()
    state = wl.setup(1)
    tally = workloads.Tally()
    rnd = workloads.run_round(wl, state, tally)
    assert tally.failures == []
    assert failed_checks(wl, state, [rnd]) == {}


@pytest.mark.parametrize("name", ["simulate", "tune", "exact", "alpha_lp"])
def test_traced_run_gives_every_layer_metric(bench, name):
    spans, workloads = bench
    wl = workloads.WORKLOADS[name]()
    tally = workloads.Tally()
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        state = wl.setup(1)
    with tracer.installed(state["policies"]), tracer.span("bench.round"):
        rnd = workloads.run_round(wl, state, tally)
    assert tally.failures == []
    assert failed_checks(wl, state, [rnd]) == {}
    metrics = spans.layer_metrics(tracer.spans)
    names = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the traced-minus-plain round time, which run.traced_run adds itself
    assert names - metrics.keys() == {"trace.overhead_s"}


def test_tracer_sees_pickup_aware_tuning(bench):
    # the per-candidate path builds one SmwPolicy per candidate, beta or
    # not, so the patched tuner.SmwPolicy traces each of them
    spans, _ = bench
    from smwsim import TimedConfig, TuneConfig, tune
    from smwsim.instances import example1
    cfg = TuneConfig(budget=4, population=2, seed=1,
                     timed=TimedConfig(1.0, 200.0, 12))
    tracer = spans.Tracer()
    with tracer.installed():
        tune(example1(with_times=True), cfg, tune_beta=True)
    inits = [s for s in tracer.spans if s.name == "tuner.policy_init"]
    metrics = spans.layer_metrics(tracer.spans)
    assert len(inits) == 4
    assert metrics["sim.steps"] == metrics["policies.dispatch_calls"] > 0
