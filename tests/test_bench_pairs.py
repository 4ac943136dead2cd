"""The arithmetic of scripts/bench_pairs.py: medians, quartiles, pair wins
and the claim rule, checked against a BENCH file written by hand."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH_7 = json.loads((ROOT / "BENCH_7.json").read_text())


@pytest.mark.parametrize("workload", sorted(BENCH_7["workloads"]))
@pytest.mark.parametrize("metric", ["ops_per_s", "op_p50_s", "peak_rss_mb"])
def test_compare_reproduces_a_recorded_bench_file(workload, metric):
    recorded = BENCH_7["workloads"][workload]["metrics"][metric]
    got = bench_pairs.compare(recorded["parent"]["runs"], recorded["change"]["runs"],
                              recorded["better"])
    for side in ("parent", "change"):
        for key in ("median", "q1", "q3"):
            assert got[side][key] == pytest.approx(recorded[side][key], abs=2e-6)
    for key in ("change_over_parent_median", "relative_worsening_of_median", "parent_iqr"):
        assert got[key] == pytest.approx(recorded[key], abs=2e-6)
    assert got["pairs_won_by_change"] == recorded["pairs_won_by_change"]


def test_claim_rule_matches_the_recorded_verdict():
    cmp = BENCH_7["workloads"]["verify_suites"]["metrics"]["ops_per_s"]
    assert bench_pairs.claim_met(cmp, 10) is BENCH_7["claim"]["met"] is True


def test_quartiles_and_wins_on_small_samples():
    s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["q1"], s["q3"]) == (2.5, 1.75, 3.25)
    one = bench_pairs.summary([5.0])
    assert (one["median"], one["q1"], one["q3"]) == (5.0, 5.0, 5.0)
    # lower is better: the change wins a pair by being smaller
    cmp = bench_pairs.compare([2.0, 2.0, 2.0], [1.0, 3.0, 1.0], "lower")
    assert cmp["pairs_won_by_change"] == 2
    assert cmp["relative_worsening_of_median"] == -0.5


def test_claim_rule_needs_ratio_wins_and_spread():
    parent = [10.0] * 9 + [20.0]
    assert bench_pairs.claim_met(bench_pairs.compare(parent, [13.0] * 10, "higher"), 10)
    # 1.2x is short of the ratio
    assert not bench_pairs.claim_met(bench_pairs.compare(parent, [12.0] * 10, "higher"), 10)
    # two lost pairs of ten miss the 9/10 wins
    change = [13.0] * 8 + [9.0, 9.0]
    assert not bench_pairs.claim_met(bench_pairs.compare(parent, change, "higher"), 10)
    # a median gap inside the parent's interquartile range
    wide = [5.0, 8.0, 10.0, 10.0, 10.0, 10.0, 12.0, 14.0, 15.0, 15.0]
    narrow = [x * 1.3 for x in wide]
    assert not bench_pairs.claim_met(bench_pairs.compare(wide, narrow, "higher"), 10)
