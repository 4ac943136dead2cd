"""End-to-end and per-layer benchmark of wickstar star and verify requests.

    python3 perfbench/run.py --workload verify_suites --seed 1 --seconds 45 --trace 0

One process, one client, closed loop: each request starts when the last
one has returned, and nothing else runs beside it.  Requests go through
the public entry points `fedosov.star` (star workloads) and
`cli.main(["verify", ...])` (verify_suites), whole rounds at a time (see
`workloads.py`), at least `MIN_ROUNDS`, until the next round would end
more than half a round past `--seconds`.  Every result is checked after
the timed region.

`--trace 0` prints the end-to-end metrics.  `setup_s` is the time from
process start to the end of set-up: the median of this process's and of
`SETUP_SAMPLES - 1` fresh processes' that set up the same run and exit
(`--setup-only`).  They run one at a time between ops, outside the op
timings, spread over the timed rounds: one set-up takes under a second,
and on a shared 2-core VM the speed of the host changes by a third from
one set-up to the next and stays changed for tens of seconds.
`--trace 1` traces the set-up requests (chart validation and warm-up) and
the first round through the span recorder of `tracer.py`, runs that round
untraced before and after, and prints the per-layer metrics.  Results are
checked with the tracer removed, so the checker's own arithmetic is not
counted.  The spans are written to `.bench_out/` at the root of the
checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when the run completed, 1 when it could not start.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

try:
    import engine
    import wickstar.chart
    import workloads as wl
    from tracer import Tracer
except ImportError as exc:
    print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
    sys.exit(1)

# the rounds every run makes, whatever `--seconds`: peak memory is read after
# them, and the percentile of op_tail_s is set from their number of ops
MIN_ROUNDS = {"star_curved": 2, "star_flat": 8, "verify_suites": 2}
SETUP_SAMPLES = 3
# a smoke request through the verify entry point, part of every set-up
SMOKE = wl.VerifyOp("disk", "wick", "algebra", 1, 0)
CHARTS = {
    "star_curved": wl.CURVED + ("ball2",),
    "star_flat": wl.FLAT,
    "verify_suites": (),
}


class Bench:
    """Chart texts, checker and op stream of one set-up."""

    def __init__(self, workload, seed):
        self.texts = engine.chart_texts(CHARTS[workload] + wl.BENCH_CHARTS)
        refs = engine.HERE / "refs"
        with open(refs / "star.json") as fh:
            star_refs = json.load(fh)
        with open(refs / "verify.json") as fh:
            verify_refs = json.load(fh)
        self.checker = wl.Checker(self.texts, star_refs, verify_refs)
        self.stream = wl.rounds(workload, seed)
        self.warmup = [wl.warmup_op(workload), SMOKE]
        self.check_warmup(self.warm_up())

    def warm_up(self):
        """Validate the benchmark's own charts and run the warm-up requests;
        returns their results."""
        for name in wl.BENCH_CHARTS:
            chart = wickstar.chart.load_chart(self.texts[name])
            chart.connection
            chart.curvature_data
        return [wl.run_op(op, self.texts) for op in self.warmup]

    def check_warmup(self, results):
        for op, result in zip(self.warmup, results):
            err = self.checker.check(op, result)
            if err:
                raise RuntimeError(f"warm-up request {op}: {err}")

    def run(self, ops, between=None):
        """Run ops back to back; returns (latencies, outcomes).
        `between(timed)` runs before each op, outside its timing, with the
        seconds the earlier ops of `ops` took."""
        latencies, outcomes = [], []
        clock = time.perf_counter
        for op in ops:
            if between:
                between(sum(latencies))
            start = clock()
            try:
                outcome = (wl.run_op(op, self.texts), None)
            except Exception:
                outcome = (None, traceback.format_exc(limit=3))
            latencies.append(clock() - start)
            outcomes.append(outcome)
        return latencies, outcomes

    def check(self, ops, outcomes):
        """Reasons for failure by op index, checked after timing."""
        failures = {}
        for i, (op, (result, error)) in enumerate(zip(ops, outcomes)):
            if error is None:
                error = self.checker.check(op, result)
            if error:
                failures[i] = f"{op}: {error}"
        return failures


def tail_percentile(n):
    """The highest percentile, in steps of five from the median up, that
    has at least ten of n samples beyond it by nearest rank; the median
    when no step has ten beyond."""
    return max((p for p in range(50, 100, 5) if n - math.ceil(p * n / 100) >= 10), default=50)


def percentile(latencies, p):
    """The p-th percentile by nearest rank."""
    ordered = sorted(latencies)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def measure(bench, min_rounds, seconds, sample_setup):
    """Whole rounds, at least `min_rounds`, until the next round would end
    more than half a round past `seconds`.  Every round makes the same
    requests, so the mix does not depend on how many rounds the host's
    speed allowed, and neither does the percentile of `op_tail_s`: the
    highest with ten samples beyond it in `min_rounds` rounds, so that it
    names the same op of a round in every run.  The timed wall clock is the
    sum of the op latencies, so what runs between ops is not timed: making
    the next round's inputs, and the SETUP_SAMPLES - 1 calls of
    `sample_setup`, one each time the timed clock passes a further
    `seconds / SETUP_SAMPLES` (the calls left when the rounds end follow
    them).  Returns the set-up samples with the rest."""
    ops, latencies, outcomes, setups = [], [], [], []
    wall = 0.0
    steps = [seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]

    def between(done):
        if len(setups) < len(steps) and wall + done >= steps[len(setups)]:
            setups.append(sample_setup())

    for rounds, round_ops in enumerate(bench.stream, start=1):
        lat, out = bench.run(round_ops, between)
        wall += sum(lat)
        ops += round_ops
        latencies += lat
        outcomes += out
        if rounds == min_rounds:
            # peak memory over a fixed amount of work, read before checking
            # adds the checker's own: how many rounds follow depends on the
            # host's speed, and each holds its results until the check
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rounds >= min_rounds and wall + wall / rounds / 2 > seconds:
            break
    while len(setups) < len(steps):
        setups.append(sample_setup())
    failures = bench.check(ops, outcomes)
    tail_pct = tail_percentile(min_rounds * len(round_ops))
    tail_s = percentile(latencies, tail_pct)
    metrics = {
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"op_tail_s is p{tail_pct} of {len(ops)} ops",
             f"fail_ratio {len(failures)}/{len(ops)}",
             f"timed {wall:.2f} s"]
    return len(ops), failures, metrics, notes, setups


def setup_sample(args):
    """The set-up time of a fresh process that sets up the same run and exits."""
    argv = [sys.executable, str(engine.HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    return float(out)


def trace(bench, workload, seed):
    ops = next(bench.stream)
    before, plain = bench.run(ops)
    tracer = Tracer()
    op_ids = iter(range(len(ops)))
    with tracer:
        tracer.op = "setup"
        warmup = bench.warm_up()

        def between(_):
            tracer.op = next(op_ids)

        traced_lat, traced = bench.run(ops, between)
        tracer.op = None
    # untraced before and after, so that neither warm caches nor a drifting
    # machine speed count as tracing overhead
    after, _ = bench.run(ops)
    bench.check_warmup(warmup)
    traced_s = sum(traced_lat)
    plain_s = (sum(before) + sum(after)) / 2
    failures = bench.check(ops, traced)
    for i, (op, (got, _), (want, _)) in enumerate(zip(ops, traced, plain)):
        if got != want:
            failures.setdefault(i, f"{op}: traced result differs from the untraced one")
    tracer.write_spans(engine.ROOT / ".bench_out" / f"spans-{workload}-{seed}.tsv")
    metrics = {name: (value, unit) for name, value, unit in tracer.metrics()}
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.ops_per_s"] = (len(ops) / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (len(ops) / plain_s, "1/s")
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    return len(ops), failures, metrics, [f"traced {len(ops)} ops of the first round"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since process start and exit")
    args = parser.parse_args(argv)

    try:
        bench = Bench(args.workload, args.seed)
    except OSError as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    if args.trace:
        attempted, failures, metrics, notes = trace(bench, args.workload, args.seed)
    else:
        attempted, failures, metrics, notes, setups = measure(
            bench, MIN_ROUNDS[args.workload], args.seconds, lambda: setup_sample(args))
        setups.insert(0, setup_s)
        metrics["setup_s"] = (statistics.median(setups), "s")
        notes.append("setup_s samples " + ", ".join(f"{s:.3f}" for s in setups))

    for failure in list(failures.values())[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
