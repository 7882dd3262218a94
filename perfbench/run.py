"""smwsim benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

The run imports smwsim from ``src/`` next to this directory and sets the
workload up three times.  It then repeats the workload's round until the
next round would end after ``--seconds``, and always runs at least one.
With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (the
median import of smwsim plus the median set-up), ``round_s`` (the mean
round) and ``peak_rss_mb``.  The two times are rescaled by a
calibration loop timed after each import, set-up and cell (see
``calibration_loop`` and the README); their wall-time forms are printed
and recorded.  With ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics from one traced set-up plus the
median traced round.
Human-readable lines come first; the last line of standard output is the
JSON result.  A full record (provenance, figures, checks, failures and,
when traced, the spans) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.  The exit status
is 1 when a correctness check fails, after the result is printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
CAL_SHARE = 0.2            # calibration time as a share of measured time
REFERENCE_CAL_S = 0.05     # rescaled times are scaled to this loop duration
# one process, one thread: keep BLAS from starting its own threads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["simulate", "tune", "exact", "alpha_lp"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_loop():
    """A fixed numpy-scalar loop that does not touch smwsim.

    On a shared host, other tenants slow this loop roughly as they slow
    the program, so times rescaled by its duration cancel most of the
    host's speed drift."""
    import numpy as np
    q = np.zeros(8, dtype=np.int64)
    s = 0.0
    for t in range(20_000):
        i = t & 7
        q[i] += 1
        s += q[i] * 0.5
    return s


class Calibration:
    """Calibration-loop samples spread over a run: after each measured
    piece of work, sample at least once and until calibration time is
    CAL_SHARE of the measured time so far."""

    def __init__(self):
        self.samples = []
        self.measured = 0.0

    def keep_up(self, work_s: float) -> float:
        """Sample after a piece of work that took ``work_s``; return the
        mean of this call's samples, the loop time next to that work."""
        self.measured += work_s
        start = len(self.samples)
        while len(self.samples) == start or \
                sum(self.samples) < CAL_SHARE * self.measured:
            t0 = time.perf_counter()
            calibration_loop()
            self.samples.append(time.perf_counter() - t0)
        return statistics.mean(self.samples[start:])


def to_reference(work_s, cal):
    """``work_s`` wall seconds in reference seconds, rescaled by the loop
    samples taken right after the work: for a short piece of set-up work,
    the run's mean loop time misses the host's speed when it ran."""
    return work_s * REFERENCE_CAL_S / cal.keep_up(work_s)


def import_smwsim(cal):
    """Import smwsim IMPORT_REPEATS times.  Returns the median import time
    in wall seconds and in reference seconds, and every wall time.

    numpy and scipy are dependencies, not program code: they are imported
    before the timer starts, so only smwsim's own modules are timed.  Each
    repeat first drops smwsim's modules from ``sys.modules``; the median
    also hides the first import's byte-compilation in a fresh checkout."""
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    took, rescaled = [], []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules
                     if m == "smwsim" or m.startswith("smwsim.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("smwsim")
        took.append(time.perf_counter() - t0)
        rescaled.append(to_reference(took[-1], cal))
    return statistics.median(took), statistics.median(rescaled), took


def rounds_until(seconds, run_round):
    """Call run_round() until the next call would end past ``seconds``;
    at least once.  Returns the list of its results."""
    start = time.perf_counter()
    results, took = [], []
    while True:
        t0 = time.perf_counter()
        results.append(run_round())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return results


def plain_run(wl, seed, seconds, tally, cal, imports):
    from workloads import run_round
    setups, setups_rescaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
        setups_rescaled.append(to_reference(setups[-1], cal))
    first = len(cal.samples)
    rounds = rounds_until(seconds,
                          lambda: run_round(wl, state, tally, cal.keep_up))
    rss = peak_rss_mb()
    times = [sum(t for _, _, t in r) for r in rounds]
    round_cal = cal.samples[first:]
    # means, not medians: a round averages over the host's fast and slow
    # spells, and so must the calibration, whose samples are bimodal
    wall = {"setup_s": imports[0] + statistics.median(setups),
            "round_s": statistics.mean(times)}
    rescaled = {"setup_s": imports[1] + statistics.median(setups_rescaled),
                "round_s": wall["round_s"] * REFERENCE_CAL_S
                / statistics.mean(round_cal)}
    metrics = {"setup_s": (rescaled["setup_s"], "s"),
               "round_s": (rescaled["round_s"], "s"),
               "peak_rss_mb": (rss, "MB")}
    record = {"setup_runs_s": setups, "round_times_s": times,
              "calibration_s": cal.samples, "round_calibration_s": round_cal,
              "wall": wall, "rescaled": rescaled}
    return state, rounds, metrics, record


def traced_run(wl, seed, seconds, tally):
    import spans
    from workloads import run_round
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        state = wl.setup(seed)
    setup_spans = list(tracer.spans)

    def pair():
        t0 = time.perf_counter()
        plain = run_round(wl, state, tally)
        plain_s = time.perf_counter() - t0
        mark = len(tracer.spans)
        with tracer.installed(state["policies"]), \
                tracer.span("bench.round") as root:
            traced = run_round(wl, state, tally)
        return plain, plain_s, traced, root.duration, tracer.spans[mark:]

    done = rounds_until(seconds, pair)
    plain_times = [p[1] for p in done]
    traced_times = [p[3] for p in done]
    mid = sorted(range(len(done)), key=lambda i: traced_times[i])[
        (len(done) - 1) // 2]
    metrics = spans.layer_metrics(setup_spans + done[mid][4])
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    metrics["trace.overhead_s"] = overhead
    rounds = [r for p in done for r in (p[0], p[2])]
    record = {"round_times_s": plain_times,
              "traced_round_times_s": traced_times,
              "trace_overhead_s": overhead,
              "spans": [s.to_json() for s in tracer.spans]}
    return state, rounds, metrics, record


def as_json(named):
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def per_layer_units():
    """name -> unit of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smwsim" / "__init__.py").is_file():
        print(f"error: smwsim sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    cal = Calibration()
    *imports, import_runs = import_smwsim(cal)
    import numpy
    import scipy
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tally = workloads.Tally()
    if args.trace:
        state, rounds, values, record = traced_run(
            wl, args.seed, args.seconds, tally)
        units = per_layer_units()
        metrics = {k: (values[k], units[k]) for k in units}
    else:
        state, rounds, metrics, record = plain_run(
            wl, args.seed, args.seconds, tally, cal, imports)

    check_results = wl.check(state, rounds, args.seed)
    figures = wl.figures(state, rounds)
    if not args.trace:
        for base in ("wall", "rescaled"):
            for k, v in record[base].items():
                figures[f"{k[:-2]}_{base}_s"] = (v, "s")
        figures["calibration_ms"] = (
            1e3 * statistics.mean(record["round_calibration_s"]), "ms")
    figures["failed_frac"] = (tally.failed_frac, "1")
    correct = all(c["ok"] for c in check_results.values())

    record.update({
        "import_runs_s": import_runs,
        "workload": args.workload, "trace": args.trace,
        "provenance": {
            "seed": args.seed, "seeds": state["seeds"],
            "git_commit": git_commit(ROOT),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "run_seconds": args.seconds,
            "trace_overhead_s": record.get("trace_overhead_s"),
        },
        "metrics": as_json(metrics),
        "figures": as_json(figures),
        "checks": check_results,
        "attempted": tally.attempted, "failures": tally.failures,
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# smwsim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(record['round_times_s'])}")
    for name, (value, unit) in {**metrics, **figures}.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for name, c in check_results.items():
        print(f"check {name:28s} {'ok' if c['ok'] else 'FAILED'}")
    for f in tally.failures:
        print(f"failed {f['op']}: {f['error']}")
    print(f"# record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": as_json(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
