"""Every solver is reentrant: no module holds mutable state, and runs from
several threads at once equal a single-thread run bit for bit."""

import importlib
import pkgutil
import sys
import threading

import numpy as np

import smwsim
from smwsim import (SmwPolicy, TuneConfig, optimal_alpha,
                    stationary_drop_probability, tune, vanilla_policy)
from smwsim.instances import example1, random_crp

MUTABLE = (list, dict, set, bytearray, np.ndarray)


def run_in_threads(fn, count=4):
    """fn() from count threads released together, switching often; their
    results in thread order (None where a thread raised)."""
    barrier, out = threading.Barrier(count), [None] * count

    def work(k):
        barrier.wait()
        out[k] = fn()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return out


def test_no_module_global_is_mutable():
    found = []
    for info in pkgutil.iter_modules(smwsim.__path__, "smwsim."):
        module = importlib.import_module(info.name)
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if not name.startswith("__") and isinstance(value, MUTABLE)]
    assert found == []


def test_stationary_solve_is_reentrant_across_threads():
    # one net and two policies shared by every thread
    net = random_crp(4, seed=1)
    cells = [(vanilla_policy(net), 20),
             (SmwPolicy(net, optimal_alpha(net)[0]), 25)]

    def solve():
        return [(sol.stationary.tobytes(), sol.class_states.tobytes(),
                 sol.drop_probability, sol.residual, sol.lu_nnz)
                for sol in (stationary_drop_probability(net, p, K)
                            for p, K in cells)]

    want = solve()
    assert run_in_threads(solve) == [want] * 4


def test_tune_is_reentrant_across_threads():
    net, cfg = example1(), TuneConfig(seed=3, budget=40)

    def run():
        res = tune(net, cfg)
        return [(it, c, a.tobytes(), b, m, e)
                for it, c, a, b, m, e in res.trace], res.runs

    want = run()
    assert run_in_threads(run) == [want] * 4
