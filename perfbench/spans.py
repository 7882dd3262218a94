"""In-memory span tracing around calls into smwsim's modules.

A traced section patches each public function at the name where callers
look it up (``from .x import y`` binds at import time, so the patch goes
on ``smwsim.tuner.run_jump_chain`` as well as ``smwsim.sim.run_jump_chain``)
and wraps ``dispatch`` on policy instances.  Every patched call records a
span: name, start, end and parent.  Per-step ``dispatch`` calls are not
spans; they are aggregated as a count, a total time and a reason tally on
the span that made them.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import time

import smwsim.chain as chain
import smwsim.exponent as exponent
import smwsim.instances as instances
import smwsim.lp as lp
import smwsim.sim as sim
import smwsim.tuner as tuner
from smwsim.policies import NO_COMPATIBLE_SUPPLY, POLICY_DECLINED, SERVED


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts",
                 "dispatch_calls", "dispatch_s", "reasons")

    def __init__(self, id, name, parent, start, end=None):
        self.id, self.name, self.parent = id, name, parent
        self.start, self.end = start, end
        self.counts = {}
        self.dispatch_calls = 0
        self.dispatch_s = 0.0
        self.reasons = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, **counts):
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts,
                "dispatch": {"calls": self.dispatch_calls,
                             "seconds": self.dispatch_s,
                             "reasons": self.reasons}}


def self_times(spans) -> dict:
    """Span id -> duration minus its children's durations and its
    aggregated dispatch time."""
    covered = {s.id: s.dispatch_s for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


class Tracer:
    """Span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name, count=None):
        """Make each call of fn a span; count(span, args, out) adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(s)
            if count is not None:
                count(s, args, out)
            return out
        return traced

    def wrap_dispatch(self, policy):
        """Shadow policy.dispatch on the instance with an aggregating wrapper."""
        inner = policy.dispatch
        clock = time.perf_counter
        stack = self._stack

        def dispatch(queues, origin, rng=None):
            t0 = clock()
            dec = inner(queues, origin, rng)
            dt = clock() - t0
            top = stack[-1]
            top.dispatch_calls += 1
            top.dispatch_s += dt
            top.reasons[dec.reason] = top.reasons.get(dec.reason, 0) + 1
            return dec

        policy.dispatch = dispatch
        return policy

    @contextlib.contextmanager
    def installed(self, policies=()):
        """Patch every layer boundary and wrap the given policies; undo on exit."""
        saved = []
        try:
            for owner, attr, make in _boundaries(self):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    patched = classmethod(make(original.__func__))
                else:
                    patched = make(original)
                setattr(owner, attr, patched)
            for p in policies:
                self.wrap_dispatch(p)
            yield self
        finally:
            for p in policies:
                p.__dict__.pop("dispatch", None)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _lp_counts(span, args, sol):
    prog = args[0]
    rows = sum(a.shape[0] for a in (prog.a_ub, prog.a_eq) if a is not None)
    span.add(iterations=sol.iterations, rows=rows, cols=prog.c.size)


def _subset_counts(span, args, out):
    span.add(subsets=len(out))


def _boundaries(tracer: Tracer):
    """(owner, attribute, make) for every layer boundary, where
    make(original) returns the traced replacement."""
    def traced(name, count=None):
        return lambda fn: tracer.wrap(fn, name, count)

    def traced_policy_class(cls):
        init = tracer.wrap(cls, "tuner.policy_init")
        return lambda *a, **kw: tracer.wrap_dispatch(init(*a, **kw))

    generate = traced("instances.generate")
    validate = traced("network.validate_network")
    subsets = traced("exponent.drainable_subsets", _subset_counts)
    solve_lp = traced("lp.solve_lp", _lp_counts)
    transport = traced("lp.solve_transportation")
    jump = traced("sim.run_jump_chain")
    timed = traced("sim.run_timed")
    return [
        (instances, "random_crp", generate),
        (instances, "example1", generate),
        (instances, "symmetric_ring", generate),
        (instances, "validate_network", validate),
        (exponent, "validate_network", validate),
        (instances, "drainable_subsets", subsets),
        (exponent, "drainable_subsets", subsets),
        (exponent, "gamma", traced("exponent.gamma")),
        (exponent, "optimal_alpha", traced("exponent.optimal_alpha")),
        (exponent, "most_likely_path", traced("exponent.most_likely_path")),
        (exponent, "min_drift_speed", traced("exponent.min_drift_speed")),
        (exponent, "solve_lp", solve_lp),
        (lp, "solve_lp", solve_lp),
        (lp, "solve_transportation", transport),
        (sim, "solve_transportation", transport),
        (sim, "fleet_requirement", traced("sim.fleet_requirement")),
        (sim, "run_jump_chain", jump),
        (sim, "run_timed", timed),
        (tuner, "run_jump_chain", jump),
        (tuner, "run_timed", timed),
        (tuner, "SmwPolicy", traced_policy_class),
        (tuner, "tune", traced(
            "tuner.tune", lambda s, args, out: s.add(evals=len(out.trace)))),
        (chain, "stationary_drop_probability", traced(
            "chain.stationary_drop_probability",
            lambda s, args, out: s.add(residual=out.residual))),
        (chain, "build_chain", traced(
            "chain.build_chain",
            lambda s, args, out: s.add(states=out[0].shape[0],
                                       nnz=out[0].nnz))),
        (chain.StateSpace, "enumerate", traced("chain.enumerate")),
    ]


SIM_SPANS = ("sim.run_jump_chain", "sim.run_timed")


def layer_metrics(spans) -> dict:
    """Per-layer figures over one set of spans (see README for definitions).

    ``*_s`` of a function is its self time -- its duration minus the spans
    and dispatch calls it contains -- except ``sim.run_s``,
    ``tuner.tune_s`` and ``instances.generate_s``, which are inclusive.
    Spans whose name starts with ``bench.`` are the benchmark's own
    set-up and round roots; their self time is the wall time no layer
    span covers.
    """
    selfs = self_times(spans)

    def of(*names):
        return [s for s in spans if s.name in names]

    def dur(*names):
        return sum(s.duration for s in of(*names))

    def self_(*names):
        return sum(selfs[s.id] for s in of(*names))

    def count(key, *names):
        return sum(s.counts.get(key, 0) for s in of(*names))

    calls = sum(s.dispatch_calls for s in spans)
    reasons = {}
    for s in spans:
        for r, c in s.reasons.items():
            reasons[r] = reasons.get(r, 0) + c
    residuals = [s.counts["residual"] for s in
                 of("chain.stationary_drop_probability")]
    return {
        "policies.dispatch_s": sum(s.dispatch_s for s in spans),
        "policies.dispatch_calls": calls,
        "policies.served_frac":
            reasons.get(SERVED, 0) / calls if calls else 0.0,
        "policies.drops_no_supply": reasons.get(NO_COMPATIBLE_SUPPLY, 0),
        "policies.drops_declined": reasons.get(POLICY_DECLINED, 0),
        "sim.run_s": dur(*SIM_SPANS),
        "sim.self_s": self_(*SIM_SPANS),
        "sim.steps": sum(s.dispatch_calls for s in of(*SIM_SPANS)),
        "tuner.tune_s": dur("tuner.tune"),
        "tuner.self_s": self_("tuner.tune"),
        "tuner.policy_init_s": dur("tuner.policy_init"),
        "tuner.evals": count("evals", "tuner.tune"),
        "chain.enumerate_s": self_("chain.enumerate"),
        "chain.build_s": self_("chain.build_chain"),
        "chain.solve_s": self_("chain.stationary_drop_probability"),
        "chain.states": count("states", "chain.build_chain"),
        "chain.nnz": count("nnz", "chain.build_chain"),
        "chain.residual": max(residuals, default=0.0),
        "lp.solve_lp_s": self_("lp.solve_lp"),
        "lp.solve_lp_calls": len(of("lp.solve_lp")),
        "lp.iterations": count("iterations", "lp.solve_lp"),
        "lp.rows": count("rows", "lp.solve_lp"),
        "lp.cols": count("cols", "lp.solve_lp"),
        "lp.solve_transportation_s": self_("lp.solve_transportation"),
        "exponent.drainable_subsets_s": self_("exponent.drainable_subsets"),
        "exponent.drainable_subsets_calls":
            len(of("exponent.drainable_subsets")),
        "exponent.subsets": count("subsets", "exponent.drainable_subsets"),
        "exponent.gamma_s": self_("exponent.gamma"),
        "network.validate_network_s": self_("network.validate_network"),
        "network.validate_network_calls": len(of("network.validate_network")),
        "instances.generate_s": dur("instances.generate"),
        "trace.uncovered_s": sum(selfs[s.id] for s in spans
                                 if s.name.startswith("bench.")),
    }
