"""Record the reference tables the benchmark checks results against.

    python3 perfbench/record.py [star|verify ...]

`refs/star.json` holds, for every chart and product of the star workloads,
the star product of each ordered pair of basis monomials up to the order
in `workloads.STAR_ORDER`, in canonical serialized form.  `refs/verify.json`
holds, for every (chart, product, suite, order) of the verify workload, the
checks that `wickstar verify` reports, each with one P (passed) or F
(failed) per seed of `workloads.VERIFY_SEEDS`: sampled checks that are
expected to fail can pass on some samples, so the outcome is recorded per
seed.

Run this only when the engine's results are meant to change; the tables
are the benchmark's record of what is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import engine
import wickstar.chart
import wickstar.cli
import wickstar.expr
import wickstar.fedosov
import workloads as wl

REFS = engine.HERE / "refs"


def record_star():
    texts = engine.chart_texts(wl.CURVED + ("ball2",) + wl.FLAT)
    out = {}
    for name, text in texts.items():
        order = wl.STAR_ORDER[wl.chart_family(name)]
        out[name] = {}
        for product in wl.PRODUCTS:
            t0 = time.perf_counter()
            chart = wickstar.chart.load_chart(text)
            monos = [wickstar.expr.parse(m, chart.n, chart.factor_base) for m in wl.basis(name)]
            data = wickstar.fedosov.FedosovData(product, chart, 2 * order + 2)
            table = [[[c.serialize() for c in wickstar.fedosov.star(data, a, b, order).coeffs]
                      for b in monos] for a in monos]
            # a request of lower order is compared with a prefix of the table,
            # so the prefix must not depend on the order asked for
            lower = {"curved": (2,), "ball2": (), "flat": (5, 6)}[wl.chart_family(name)]
            for n in lower:
                data_n = wickstar.fedosov.FedosovData(product, wickstar.chart.load_chart(text), 2 * n + 2)
                for i, j in ((1, 2), (len(monos) - 1, 1)):
                    got = wickstar.fedosov.star(data_n, monos[i], monos[j], n).coeffs
                    want = [wickstar.expr.parse(t, chart.n, chart.factor_base) for t in table[i][j][: n + 1]]
                    if got != want:
                        raise SystemExit(f"{name} {product}: order {n} is not a prefix of order {order}")
            out[name][product] = table
            print(f"star {name} {product}: {time.perf_counter() - t0:.1f} s", flush=True)
    return out


def _verify_checks(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = wickstar.cli.main(argv + ["--format", "json"])
    if code not in (0, 1):
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")
    doc = json.loads(buf.getvalue())
    return [[c["name"], c["passed"]] for s in doc["suites"] for c in s["checks"]]


def record_verify():
    out = {}
    for suite, order in wl.VERIFY_CLASSES:
        for chart in wl.BUNDLED:
            for product in wl.PRODUCTS:
                t0 = time.perf_counter()
                runs = [_verify_checks(wl.VerifyOp(chart, product, suite, order, k).argv)
                        for k in wl.VERIFY_SEEDS]
                names = [name for name, _ in runs[0]]
                if any([name for name, _ in run] != names for run in runs):
                    raise SystemExit(f"{(chart, product, suite, order)}: check names depend on the seed")
                flags = ["".join("P" if run[i][1] else "F" for run in runs) for i in range(len(names))]
                out["|".join(map(str, (chart, product, suite, order)))] = [
                    [name, flag] for name, flag in zip(names, flags)]
                print(f"verify {chart} {product} {suite} {order}: {time.perf_counter() - t0:.1f} s",
                      flush=True)
    return out


def main(argv):
    REFS.mkdir(exist_ok=True)
    for what in argv or ["star", "verify"]:
        table = {"star": record_star, "verify": record_verify}[what]()
        with open(REFS / f"{what}.json", "w") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
