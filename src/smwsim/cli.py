"""Command-line front end.

Subcommands: validate | gamma | sweep | generate | transient | tune |
fleet | exact.  All network inputs are JSON files, tabular outputs are
CSV, reports are JSON.  Exit codes: 0 success, 1 input error, 2 model
assumption violation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import instances
from .chain import stationary_drop_probability
from .exponent import (
    PoolingViolationError,
    gamma,
    most_likely_path,
    optimal_alpha,
    uniform_alpha,
)
from .lp import solve_transportation
from .network import (
    NetworkError,
    build_network,
    load_network,
    save_network,
    validate_network,
)
from .policies import FluidPolicy, SmwPolicy, policy_from_spec, vanilla_policy
from .sim import (
    TimedConfig,
    estimate_exponent,
    fleet_requirement,
    proportional_init,
    run_jump_chain,
    run_timed,
)
from .tuner import TuneConfig, tune

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_RUNTIME = 3


def _config_hash(d: dict) -> str:
    return hashlib.sha1(
        json.dumps(d, sort_keys=True, default=str).encode()).hexdigest()[:12]


def _emit(rows, header, out):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out:
            fh.close()


def _parse_alpha(text):
    return np.array([float(v) for v in text.split(",")])


def _make_policy(net, name, eps_floor, seed=0):
    """Policy from a CLI name: vanilla | smw-optimal | fluid | smw:<a,b,...>
    or a path to a policy-spec JSON file."""
    if name == "vanilla":
        return vanilla_policy(net)
    if name == "smw-optimal":
        alpha, _ = optimal_alpha(net, eps_floor)
        p = SmwPolicy(net, alpha)
        p.name = "smw-optimal"
        return p
    if name == "fluid":
        cost = np.zeros((net.n_supply, net.n_demand))
        if net.pickup_time is not None:
            cost = net.pickup_time[:net.n_supply, :net.n_demand]
        flow = solve_transportation(net.col_rates(), net.row_rates(), cost,
                                    support=list(net.edges))
        return FluidPolicy(net, flow)
    if name.startswith("smw:"):
        p = SmwPolicy(net, _parse_alpha(name[4:]))
        p.name = name
        return p
    with open(name) as fh:
        return policy_from_spec(net, json.load(fh))


def cmd_validate(args):
    net = load_network(args.network)
    with open(args.network) as fh:
        mass = float(np.sum(json.load(fh)["phi"]))
    report = validate_network(net, original_mass=mass)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.crp_holds else EXIT_ASSUMPTION


def cmd_gamma(args):
    net = load_network(args.network)
    if args.optimal:
        alpha, res = optimal_alpha(net, args.eps_floor)
    else:
        alpha = _parse_alpha(args.alpha) if args.alpha \
            else uniform_alpha(net.n_supply)
        res = gamma(net, alpha)
    rows = [[",".join(map(str, st.members)), ",".join(map(str, st.boundary)),
             st.lambda_rate, st.mu_rate, b, c]
            for (st, b, c) in res.per_subset]
    _emit(rows, ["subset", "boundary", "lambda", "mu", "B", "contribution"],
          args.out)
    summary = {"alpha": list(alpha), "gamma": res.to_json()["gamma"],
               "critical_subsets": [list(s) for s in res.critical_subsets]}
    if not res.is_infinite:
        path = most_likely_path(net, alpha)
        summary["f_star"] = path.f_star.tolist()
        summary["drain_time"] = path.drain_time
        summary["kl_rate"] = path.kl_rate
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_generate(args):
    if args.kind == "example1":
        net = instances.example1(with_times=args.with_times)
    elif args.kind == "symmetric_ring":
        net = instances.symmetric_ring(args.n, with_times=args.with_times)
    elif args.kind == "random_crp":
        net = instances.random_crp(args.n, seed=args.seed, eta=args.eta,
                                   with_times=args.with_times)
    else:
        raise NetworkError(f"unknown instance kind {args.kind!r}")
    save_network(net, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fleet(args):
    net = load_network(args.network)
    fr = fleet_requirement(net, args.total_rate)
    print(json.dumps({"k_in_transit": fr.k_in_transit,
                      "k_pickup": fr.k_pickup, "k_fl": fr.k_fl}, indent=2))
    return EXIT_OK


def cmd_exact(args):
    net = load_network(args.network)
    policy = _make_policy(net, args.policy, args.eps_floor)
    rows = []
    for K in args.K:
        sol = stationary_drop_probability(net, policy, K)
        rows.append([K, sol.drop_probability, len(sol.space.states),
                     sol.recurrent_class_count])
    _emit(rows, ["K", "drop_probability", "states", "recurrent_classes"],
          args.out)
    return EXIT_OK


def cmd_sweep(args):
    net = load_network(args.network)
    cfg_hash = _config_hash(vars(args))
    rows, failures = [], 0
    slopes = []
    for pname in args.policies:
        policy = _make_policy(net, pname, args.eps_floor)
        curve = []
        for K in args.K:
            if args.exact:
                try:
                    sol = stationary_drop_probability(net, policy, K)
                except Exception as exc:  # record per-cell failure, keep going
                    rows.append([pname, K, "exact", "", "", f"error:{exc}",
                                 cfg_hash])
                    failures += 1
                    continue
                rows.append([pname, K, "exact", sol.drop_probability, 0.0, "",
                             cfg_hash])
                curve.append((K, sol.drop_probability))
            else:
                vals = []
                for seed in args.seeds:
                    if args.timed:
                        tc = TimedConfig(args.total_rate, args.horizon, K)
                        rep = run_timed(net, policy, tc,
                                        with_pickup=net.pickup_time is not None,
                                        seed=seed)
                    else:
                        rep = run_jump_chain(net, policy, K, args.steps,
                                             seed=seed)
                    rows.append([pname, K, seed, rep.drop_fraction, "", "",
                                 cfg_hash])
                    vals.append(rep.drop_fraction)
                mean = float(np.mean(vals))
                se = float(np.std(vals) / max(len(vals) - 1, 1) ** 0.5)
                rows.append([pname, K, "aggregate", mean, se, "", cfg_hash])
                curve.append((K, mean))
        if len([p for (_, p) in curve if p > 0]) >= 3:
            slope, r2 = estimate_exponent([(k, p) for (k, p) in curve if p > 0])
            slopes.append([pname, "slope", "", slope, r2, "", cfg_hash])
    _emit(rows + slopes,
          ["policy", "K", "seed", "drop", "stderr", "note", "config_hash"],
          args.out)
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_transient(args):
    net = load_network(args.network)
    rng = np.random.default_rng(args.seed)
    cfg_hash = _config_hash(vars(args))
    inits = [proportional_init(rng.dirichlet(np.ones(net.n_supply)), args.K)
             for _ in range(args.inits)]
    rows = []
    for pname in args.policies:
        policy = _make_policy(net, pname, args.eps_floor)
        for i, init in enumerate(inits):
            for horizon in args.horizons:
                for seed in args.seeds:
                    if args.timed:
                        tc = TimedConfig(args.total_rate, horizon, args.K,
                                         warmup_frac=0.0)
                        rep = run_timed(net, policy, tc, seed=seed, init=init,
                                        with_pickup=net.pickup_time is not None)
                    else:
                        steps = max(int(horizon), 1)
                        rep = run_jump_chain(net, policy, args.K, steps,
                                             warmup=0, seed=seed, init=init)
                    drop = "" if rep.arrivals == 0 else rep.drop_fraction
                    rows.append([pname, i, horizon, seed, drop, cfg_hash])
    _emit(rows, ["policy", "init", "horizon", "seed", "drop", "config_hash"],
          args.out)
    return EXIT_OK


def cmd_tune(args):
    net = load_network(args.network)
    cfg = TuneConfig(budget=args.budget, population=args.population,
                     replications=args.replications, steps=args.steps,
                     K=args.K, seed=args.seed, eps_floor=args.eps_floor)
    res = tune(net, cfg, tune_beta=args.tune_beta)
    rows = [[it, c, ",".join(f"{v:.6f}" for v in a),
             "" if b is None else b, mean, se]
            for (it, c, a, b, mean, se) in res.trace]
    _emit(rows, ["iteration", "candidate", "alpha", "beta", "mean_drop",
                 "stderr"], args.out)
    print(json.dumps({"alpha": list(res.alpha),
                      "beta": res.beta,
                      "objective": res.best_objective}, indent=2))
    return EXIT_OK


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _float_list(text):
    return [float(v) for v in text.split(",")]


def build_parser():
    ap = argparse.ArgumentParser(prog="smwsim")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps-floor", type=float, default=1e-3)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(*a, **kw):
        return sub.add_parser(*a, parents=[common], **kw)

    p = add("validate", help="check model assumptions")
    p.add_argument("network")
    p.set_defaults(fn=cmd_validate)

    p = add("gamma", help="exponent table")
    p.add_argument("network")
    p.add_argument("--alpha", default=None)
    p.add_argument("--optimal", action="store_true")
    p.set_defaults(fn=cmd_gamma)

    p = add("generate", help="emit a network instance")
    p.add_argument("kind", choices=["example1", "symmetric_ring", "random_crp"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--with-times", action="store_true")
    p.set_defaults(fn=cmd_generate)

    p = add("fleet", help="Little's-law fleet sizing")
    p.add_argument("network")
    p.add_argument("--total-rate", type=float, required=True)
    p.set_defaults(fn=cmd_fleet)

    p = add("exact", help="exact drop probabilities per K")
    p.add_argument("network")
    p.add_argument("--policy", default="vanilla")
    p.add_argument("--K", type=_int_list, required=True)
    p.set_defaults(fn=cmd_exact)

    p = add("sweep", help="policies x K x seeds")
    p.add_argument("network")
    p.add_argument("--policies", type=lambda s: s.split(","),
                   default=["vanilla"])
    p.add_argument("--K", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--timed", action="store_true")
    p.add_argument("--total-rate", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=10000.0)
    p.set_defaults(fn=cmd_sweep)

    p = add("transient", help="finite-horizon runs per initial state")
    p.add_argument("network")
    p.add_argument("--policies", type=lambda s: s.split(","),
                   default=["vanilla"])
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--inits", type=int, default=4)
    p.add_argument("--horizons", type=_float_list, default=[30, 60, 90, 120])
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--timed", action="store_true")
    p.add_argument("--total-rate", type=float, default=1.0)
    p.set_defaults(fn=cmd_transient)

    p = add("tune", help="simulation-based parameter search")
    p.add_argument("network")
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--population", type=int, default=20)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--steps", type=int, default=15000)
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--tune-beta", action="store_true",
                   help="also tune the pickup penalty of pickup-aware SMW "
                        "(needs pickup times)")
    p.set_defaults(fn=cmd_tune)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PoolingViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (NetworkError, ValueError, OSError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
