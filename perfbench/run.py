"""tempint benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {fit,sweep,tables,segments}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from that
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of
standard output is the result object; the line before it carries the
environment, the bases of the ratios and the failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import NOMINAL, SpeedClock

# Single-threaded numerics, set before numpy loads; set-up probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
PROBE = os.path.join(HERE, "setup_probe.py")

SETUP_PROBES = 5
# The tail is the highest of these percentiles with >= 10 samples beyond it.
# The ladder stops at p99: beyond it this shared 2-core host's scheduling
# jitter, not the program, sets the value.
TAIL_LADDER = (99.0, 90.0)
TAIL_MIN_BEYOND = 10


class Tally:
    """Latency, points and failures of a run of operations."""

    def __init__(self):
        self.latencies = []
        self.intervals = []       # (start, end) of each operation
        self.seconds = 0.0
        self.points = 0
        self.failed = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.latencies)


def run_op(wl, tally, tracer=None, clock=None):
    inp = wl.next_input()
    spent = clock.spent if clock else 0.0
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.op = tally.attempted
        out = wl.run(inp)
        err = None
    except Exception as exc:     # a raising operation is a failed one
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    elapsed = t1 - t0 - ((clock.spent - spent) if clock else 0.0)
    if err is None:
        if tracer is not None:
            tracer.on = False
        try:
            err = wl.check(inp, out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.on = True
    tally.latencies.append(elapsed)
    tally.intervals.append((t0, t1))
    tally.seconds += elapsed
    tally.points += wl.points(inp)
    if err is not None:
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(err)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(latencies):
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, percentile(latencies, p)
    # too few samples for any percentile above the median
    return 50.0, statistics.median(latencies)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload):
    """Seconds from starting a fresh interpreter until it is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, PROBE, workload], cwd=ROOT,
                          stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def environment(args):
    import numpy
    import scipy
    try:
        from scipy.optimize._highspy import _core
        highs = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                 f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "highs": highs,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(setup, latencies, points, seq_ops):
    """The timed end-to-end metrics from set-up and operation times."""
    seconds = sum(latencies)
    p_tail, v_tail = tail(latencies)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "seq_wall_s": metric(sum(latencies[:seq_ops]), "s"),
        "ops_per_s": metric(len(latencies) / seconds, "ops/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1e3 * v_tail, "ms"),
        "points_per_s": metric(points / seconds, "points/s"),
    }, p_tail


def at_reference(clock, times, intervals):
    """Times divided by the machine's speed factor over their intervals."""
    return [t / clock.factor(*span) for t, span in zip(times, intervals)]


def end_to_end(args, wl):
    clock = SpeedClock()
    setup, setup_intervals = [], []
    run = Tally()
    with clock:
        # A probe runs in a child process, which samples do not delay.
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            setup.append(probe_setup(args.workload))
            setup_intervals.append((t0, time.perf_counter()))
        for _ in range(wl.fixed_ops):
            run_op(wl, run, clock=clock)
        rss = peak_rss_mb()
        while run.seconds < args.seconds:
            run_op(wl, run, clock=clock)

    metrics, p_tail = timings(at_reference(clock, setup, setup_intervals),
                              at_reference(clock, run.latencies,
                                           run.intervals),
                              run.points, wl.fixed_ops)
    metrics["peak_rss_mb"] = metric(rss, "MB")
    metrics["ok_ratio"] = metric((run.attempted - run.failed) / run.attempted,
                                 "ratio")
    raw, _ = timings(setup, run.latencies, run.points, wl.fixed_ops)
    detail = {
        "raw": {name: m["value"] for name, m in raw.items()},
        "speed_factor": {"mean": sum(clock.costs) / len(clock.costs)
                                 / NOMINAL,
                         "min": min(clock.costs) / NOMINAL,
                         "max": max(clock.costs) / NOMINAL,
                         "samples": len(clock.costs)},
        "setup_samples_s": setup,
        "seq_ops": wl.fixed_ops,
        "op_tail": {"percentile": p_tail, "samples": run.attempted,
                    "beyond": int(run.attempted * (100.0 - p_tail) / 100.0)},
        "ok_ratio": {"ok": run.attempted - run.failed,
                     "attempted": run.attempted},
    }
    if args.workload == "fit":
        detail["fit_dev_rel"] = wl.dev_rel()
    return [run], metrics, detail


def per_layer(args, wl):
    from layers import SELF_TIMED, UNAVAILABLE, Tracer, layer_metrics
    from workloads import FIT_SET

    tracer = Tracer()
    tracer.install()
    try:
        traced = Tally()
        for _ in range(wl.fixed_ops):
            run_op(wl, traced, tracer)
    finally:
        tracer.uninstall()

    # Overhead: alternate untraced and traced blocks of the same stream,
    # both timed at the reference speed.
    plain, probed = Tally(), Tally()
    probe_tracer = Tracer()
    clock = SpeedClock()
    with clock:
        while True:
            for _ in range(wl.block):
                run_op(wl, plain, clock=clock)
            probe_tracer.install()
            try:
                for _ in range(wl.block):
                    run_op(wl, probed, probe_tracer, clock)
            finally:
                probe_tracer.uninstall()
            if plain.seconds >= args.seconds / 2:
                break
    plain_s = sum(at_reference(clock, plain.latencies, plain.intervals))
    probed_s = sum(at_reference(clock, probed.latencies, probed.intervals))
    overhead = ((probed_s / probed.attempted)
                / (plain_s / plain.attempted))

    dev_rel = wl.dev_rel() if args.workload == "fit" else 0.0
    values, bases = layer_metrics(tracer, traced.seconds, overhead, dev_rel,
                                  FIT_SET)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR,
                         f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans)
    detail = {
        "bases": bases,
        "unavailable": UNAVAILABLE,
        "layer_self_s": sum(tracer.self_s[n] for n in SELF_TIMED),
        "traced_ops": traced.attempted,
        "overhead": {"untraced_ops": plain.attempted,
                     "untraced_s": plain_s,
                     "traced_ops": probed.attempted,
                     "traced_s": probed_s},
        "spans_file": os.path.relpath(spans, ROOT),
        "spans": len(tracer.spans),
    }
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
    return [traced, plain, probed], metrics, detail


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tempint", "__init__.py")):
        print(f"error: no tempint sources under {ROOT}/src", file=sys.stderr)
        return 2

    from setup_probe import prepare
    handles = prepare(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, handles, OUT_DIR)
    measure = per_layer if args.trace else end_to_end
    tallies, metrics, detail = measure(args, wl)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    detail["env"] = environment(args)
    detail["errors"] = [e for t in tallies for e in t.errors][:5]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
