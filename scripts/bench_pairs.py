#!/usr/bin/env python3
"""Write a BENCH file from alternating parent/change runs of the benchmark.

    python3 scripts/bench_pairs.py --parent REV --workload verify_suites \\
        --workload star_flat --pairs 10 --seconds 45 --seed 1101 \\
        --claim verify_suites --change "what changed" --out BENCH_11.json

For each workload, pair k runs `perfbench/run.py --workload W --seed S+k
--seconds T --trace 0` once on the committed files of REV and once on this
checkout, one after the other; the parent goes first in even pairs.  The
parent runs from a `git archive` copy of REV in a temporary directory,
removed afterwards.  Each end-to-end metric of BENCHMARK.json gets the
median and quartiles of its runs on each side, the change/parent ratio of
the medians, the pairs the change won and the parent's interquartile range.

The claim, when `--claim W` names a workload, is on its `ops_per_s`: it is
met when the change median is at least CLAIM_RATIO times the parent median,
the change wins at least CLAIM_WINS of the pairs, and the medians differ by
more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
CLAIM_METRIC = "ops_per_s"
CLAIM_RATIO = 1.25
CLAIM_WINS = 0.9


def summary(runs):
    """Median and quartiles of the runs (inclusive method), with the runs."""
    if len(runs) == 1:
        q1 = q3 = runs[0]
    else:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def compare(parent, change, better):
    """The comparison of one metric over pairs: parent[k] and change[k] are
    the k-th pair's values; `better` is "higher" or "lower"."""
    p, c = summary(parent), summary(change)
    sign = 1 if better == "higher" else -1
    return {
        "parent": p,
        "change": c,
        "change_over_parent_median": round(c["median"] / p["median"], 6),
        "pairs_won_by_change": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
        "relative_worsening_of_median": round(sign * (p["median"] - c["median"]) / p["median"], 6),
        "parent_iqr": round(p["q3"] - p["q1"], 6),
    }


def claim_met(cmp, pairs):
    """The claim rule on a compare() of a higher-is-better metric."""
    return (cmp["change_over_parent_median"] >= CLAIM_RATIO
            and cmp["pairs_won_by_change"] >= math.ceil(CLAIM_WINS * pairs)
            and cmp["change"]["median"] - cmp["parent"]["median"] > cmp["parent_iqr"])


def run_once(root, workload, seed, seconds):
    """The last stdout line of one benchmark run, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev, dest):
    """The committed files of rev, unpacked under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest)


def bench_workload(parent_root, workload, args, metrics):
    sides = {"parent": [], "change": []}
    roots = {"parent": parent_root, "change": ROOT}
    seeds = [args.seed + k for k in range(args.pairs)]
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], workload, seed, args.seconds)
            sides[side].append(result)
            print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} {side}: "
                  f"ops_per_s {result['metrics']['ops_per_s']['value']:.3f}", file=sys.stderr)
    out = {
        "seeds": seeds,
        "pairs": args.pairs,
        "correct": all(r["correct"] for runs in sides.values() for r in runs),
        "failed": sum(r["failed"] for runs in sides.values() for r in runs),
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "metrics": {},
    }
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs]
                  for side, runs in sides.items()}
        out["metrics"][m["name"]] = {"better": m["better"], "bound": m["bound"],
                                     **compare(values["parent"], values["change"], m["better"])}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    parser.add_argument("--claim", help="the workload whose ops_per_s the change claims")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim is not None and args.claim not in args.workload:
        parser.error("--claim must name one of the --workload values")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export(parent, tmp)
        workloads = {w: bench_workload(tmp, w, args, metrics) for w in args.workload}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    claim = None
    if args.claim:
        cmp = workloads[args.claim]["metrics"][CLAIM_METRIC]
        claim = {
            "workload": args.claim,
            "metric": CLAIM_METRIC,
            "rule": f"change median >= {CLAIM_RATIO}x parent median, change wins >= "
                    f"{math.ceil(CLAIM_WINS * args.pairs)}/{args.pairs} pairs, medians differ "
                    "by more than the parent's interquartile range",
            "met": claim_met(cmp, args.pairs),
        }
    doc = {
        "schema": SCHEMA,
        "change": args.change,
        "parent": parent,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "protocol": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                    "--trace 0 on the parent checkout and on the change, one pair per seed, "
                    "the side that runs first alternating (parent first in even pairs)",
        "claim": claim,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, w in workloads.items():
        ops = w["metrics"][CLAIM_METRIC]
        print(f"{name}: ops_per_s median parent {ops['parent']['median']} change "
              f"{ops['change']['median']} ({ops['change_over_parent_median']}x, "
              f"{ops['pairs_won_by_change']}/{w['pairs']} pairs), correct {w['correct']}")
    if claim:
        print(f"claim met: {claim['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
