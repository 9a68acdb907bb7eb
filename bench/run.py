"""arfkit benchmark: one workload per run, seeded, single process and thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (and the spans go to bench/out/).  Every time is given at
the reference host speed of hostspeed.py.  See bench/README.md.
"""
import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOAD_NAMES = ("value-group-build", "finite-queries", "rewrite-battery")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# every operation is timed in at least this many rounds; its time is the
# median of them
MIN_ROUNDS = 4
# the host's speed is probed this often in the timed phase
PROBE_EVERY_S = 0.1
# the program's import cost, timed in a fresh interpreter (arfkit.cli
# imports every arfkit module and the program's dependencies)
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, {src!r}); "
                "import arfkit.cli; print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import arfkit from ./src of this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "arfkit", "__init__.py")):
        sys.exit(f"bench: no arfkit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import arfkit
    if not os.path.abspath(arfkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported arfkit from {arfkit.__file__}, not {SRC}")
    import workloads       # imports every arfkit module the workloads call
    return workloads


def import_seconds(speed):
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    the program, at the reference speed; also the raw times."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.factor()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        times.append(raw[-1] / ((before + speed.factor()) / 2))
    return statistics.median(times), raw


def tail(lat):
    """The percentile with TAIL_BEYOND samples beyond it; returns (value,
    percentile, samples beyond)."""
    q = 1.0 - TAIL_BEYOND / len(lat)
    s = sorted(lat)
    k = max(0, math.ceil(q * len(s)) - 1)
    return s[k], 100.0 * q, len(s) - k - 1


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    import checks
    import hostspeed

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import spans as tracing
        tracer = tracing.Tracer()
        tracer.install()

    speed = hostspeed.HostSpeed()
    # set-up: repeated on fresh descriptors, the last one is kept
    setups, setups_raw = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        ops, dt, raw = speed.timed(wl.setup)
        setups.append(dt)
        setups_raw.append(raw)

    # timed phase: whole rounds, one closed-loop client, checks untimed.
    # Operation times wait in `pending` until the next probe of the host's
    # speed, and are divided by the mean factor of the probes around them.
    samples = [[] for _ in ops]           # times of each operation, one per round
    busy = 0.0                            # raw time inside operations, all rounds
    pending = []                          # (operation, raw time) since the last probe
    attempted = failed = wrong = 0
    notes = []                            # first few failures and wrong answers
    rounds = 0
    clock = time.perf_counter

    def probe(prev):
        f = speed.factor()
        scale = 2.0 / (prev + f)
        for i, dt in pending:
            samples[i].append(dt * scale)
        pending.clear()
        return f, clock()

    factor, t_probe = probe(speed.factor())
    t_phase = clock()
    while rounds < MIN_ROUNDS or clock() - t_phase < args.seconds:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = attempted
            attempted += 1
            t0 = clock()
            try:
                res = op.run()
            except Exception as exc:      # a failed operation is counted, not fatal
                failed += 1
                if len(notes) < 5:
                    notes.append(f"failed {op.kind}: {type(exc).__name__}: {exc}")
                continue
            dt = clock() - t0
            busy += dt
            pending.append((i, dt))
            reason = op.check(res)
            if reason:
                wrong += 1
                if len(notes) < 5:
                    notes.append(f"wrong {op.kind}: {reason}")
            if clock() - t_probe >= PROBE_EVERY_S:
                factor, t_probe = probe(factor)
        rounds += 1
        if tracer and rounds == 1:
            # set-up plus the first round: the same work in every run of a seed
            layer_metrics = tracer.snapshot()
    probe(factor)
    if tracer:
        tracer.uninstall()

    bad_checks = checks.self_test()
    correct = wrong == 0 and not bad_checks
    for note in notes:
        print(note)
    for name in bad_checks:
        print(f"self-test failed: {name}")
    # an operation's time is the median of its rounds at the reference
    # speed: the probes follow the host's drift over minutes, and the median
    # drops the rounds that a burst of a second or two slowed
    times = [statistics.median(v) for v in samples if v]
    if not times:
        print("bench: every operation failed", file=sys.stderr)
        return 1

    per_round = len(ops)
    ops_per_s = len(times) / sum(times)
    tail_ms, tail_pct, beyond = tail(times)
    print(f"{args.workload} seed={args.seed}: {rounds} round(s) of {per_round} ops, "
          f"{attempted} attempted, {failed} failed, {wrong} wrong, "
          f"raw busy {busy:.3f} s; median round {sum(times):.3f} s at reference speed")
    by_kind = {}
    for op, v in zip(ops, samples):
        if v:
            by_kind.setdefault(op.kind, []).append(statistics.median(v))
    for k, v in sorted(by_kind.items()):
        print(f"  {k:32s} n={len(v):6d}  min={min(v) * 1e3:9.3f} ms  "
              f"p50={statistics.median(v) * 1e3:9.3f} ms  max={max(v) * 1e3:9.3f} ms  "
              f"sum={sum(v):8.3f} s")
    print(f"  latency_tail_ms is p{tail_pct:.2f} over {len(times)} operations "
          f"({beyond} beyond it), each timed {rounds} times")
    print(f"  set-up runs: {', '.join(f'{s:.3f}' for s in setups)} s "
          f"(raw {', '.join(f'{s:.3f}' for s in setups_raw)} s)")

    if tracer:
        metrics = dict(layer_metrics)
        metrics[tracing.TRACED_OPS_METRIC] = ops_per_s
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "rounds": rounds, "ops_per_round": per_round,
                            "traced_ops_per_s": ops_per_s})
        print(f"  spans: {tracer.span_count} recorded, written to "
              f"{os.path.relpath(path, ROOT)}; traced ops_per_s {ops_per_s:.3f}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import_s, import_runs = import_seconds(speed)
        print(f"  imports: {import_s:.3f} s (raw {', '.join(f'{s:.3f}' for s in import_runs)} s)")
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    fs = speed.factors
    print(f"  host slowdown over the reference: min {min(fs):.3f}, "
          f"median {statistics.median(fs):.3f}, max {max(fs):.3f} ({len(fs)} probes)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
