"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import engine
import run
import wickstar
import wickstar.chart
import wickstar.cli
import wickstar.expr
import wickstar.fedosov
import workloads as wl
from tracer import Tracer


def _first_rounds(workload, seed, count=2):
    return list(itertools.islice(wl.rounds(workload, seed), count))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_stream_is_deterministic_for_a_seed(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seeds_give_different_streams(workload):
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


def _fixed_by_round(op):
    """The part of a request that its round fixes whatever the seed: the
    category of a star request, all of a verify request."""
    return op if isinstance(op, wl.VerifyOp) else op.key


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_mix_does_not_depend_on_the_seed(workload):
    def mix(seed):
        return [sorted(map(_fixed_by_round, r), key=repr) for r in _first_rounds(workload, seed, 3)]

    assert mix(1) == mix(2)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_round_makes_the_same_requests(workload):
    def mix(ops):
        return sorted(map(_fixed_by_round, ops), key=repr)

    first, *rest = _first_rounds(workload, 5, 4)
    assert all(mix(ops) == mix(first) for ops in rest)


def test_verify_rounds_cover_every_chart_product_and_suite():
    (ops,) = _first_rounds("verify_suites", 0, 1)
    assert {op.chart for op in ops} == set(wl.BUNDLED)
    assert {op.product for op in ops} == set(wl.PRODUCTS)
    assert {op.suite for op in ops} == set(wl.SUITES)


def test_generated_polynomials_parse_to_their_terms():
    texts = engine.chart_texts(wl.CURVED + ("ball2",) + wl.FLAT)
    checker = wl.Checker(texts, {}, {})
    for (ops,) in (_first_rounds("star_curved", 3, 1), _first_rounds("star_flat", 3, 1)):
        for op in ops[:6]:
            chart = wickstar.chart.load_chart(texts[op.chart])
            parsed = wickstar.expr.parse(op.f_text, chart.n, chart.factor_base)
            assert parsed == checker._poly(chart, op.f)


@pytest.mark.parametrize("workload", ["star_curved", "star_flat"])
def test_checker_rejects_a_changed_coefficient(workload):
    bench = run.Bench(workload, 2)
    ops = [op for op in next(bench.stream) if op.order != 3 and op.chart != "ball2"][:3]
    _, outcomes = bench.run(ops)
    for op, (series, error) in zip(ops, outcomes):
        assert error is None and bench.checker.check(op, series) is None
        c1 = series.coeffs[1]
        series.coeffs[1] = c1 + wickstar.expr.ChartExpr.one(c1.n).scale(wickstar.expr.GaussianRational(0, 1))
        assert bench.checker.check(op, series) == "C1 differs from the recorded basis products"


def test_bench_charts_load_and_transposed_ball2_inverse_is_rejected():
    texts = engine.chart_texts(wl.BENCH_CHARTS)
    for text in texts.values():
        wickstar.chart.load_chart(text)
    doc = json.loads(texts["ball2"])
    doc["inverse_metric"] = [list(row) for row in zip(*doc["inverse_metric"])]
    with pytest.raises(wickstar.chart.ChartError):
        wickstar.chart.load_chart(doc)


def test_traced_op_returns_the_untraced_value_and_tracer_restores():
    texts = engine.chart_texts(("disk",))
    op = wl.StarOp("disk", "wick", 2, ((1, 1, 0), (4, 0, 2)), ((2, -1, 1),))
    verify = wl.VerifyOp("c1_flat", "weyl", "fedosov", 1, 5)
    originals = (wickstar.fedosov.star, wickstar.expr.ChartExpr.__add__, wickstar.cli.star, wickstar.star)
    plain = [wl.run_op(o, texts) for o in (op, verify)]
    tracer = Tracer()
    with tracer:
        assert wickstar.fedosov.star is not originals[0]
        assert wickstar.cli.star is wickstar.fedosov.star
        traced = [wl.run_op(o, texts) for o in (op, verify)]
    assert traced == plain
    assert (wickstar.fedosov.star, wickstar.expr.ChartExpr.__add__, wickstar.cli.star, wickstar.star) == originals
    metrics = {name: value for name, value, _ in tracer.metrics()}
    assert metrics["fedosov.tau_calls"] >= 2
    assert metrics["expr.add_calls"] > 0 and metrics["weyl.pairs"] > 0
    assert metrics["cli.self_s"] > 0 and metrics["sampling.self_s"] > 0
    assert all(span is not None for span in tracer.spans)
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(tracer.spans))


@pytest.mark.parametrize("n, pct", [(10, 50), (36, 70), (48, 75), (54, 80), (378, 95)])
def test_tail_is_the_highest_five_step_percentile_with_ten_beyond(n, pct):
    assert run.tail_percentile(n) == pct
    assert sum(x > run.percentile(range(n), pct) for x in range(n)) >= min(n // 2, 10)


def _run_main(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind):
    with open(engine.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = _run_main(capsys, "--workload", "star_flat", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8 * 27
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")


def test_traced_run_prints_every_per_layer_metric(capsys):
    result = _run_main(capsys, "--workload", "star_flat", "--seed", "1", "--seconds", "0.1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(engine.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(engine.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star_flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
