"""The verdict rule of scripts/bench_pairs.py, on made-up pairs of runs."""

import pytest

from scripts.bench_pairs import judge


def runs(parent, change, correct=True, failed=(0, 0)):
    def side(ok, fails, value):
        return {"correct": ok, "attempted": 100, "failed": fails, "metrics": {"m": value}}
    return [{"parent": side(correct, failed[0], p), "change": side(True, failed[1], c)}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", [10] * 10, [10] * 10, "within bound"),
    ("lower", [10] * 10, [9] * 10, "better"),
    ("higher", [10] * 10, [11] * 10, "better"),
    ("lower", [10] * 10, [9] * 8 + [11] * 2, "within bound"),  # 8 wins of 10 are too few
    ("lower", [10] * 10, [12] * 10, "worse"),
    ("higher", [10] * 10, [8] * 10, "worse"),
    ("lower", [8, 12] * 5, [13] * 10, "unresolved"),  # worse than the bound, inside the spread
    ("lower", [8, 12] * 5, [10] * 10, "unresolved"),  # a spread wider than the bound
    ("lower", [0] * 10, [0] * 10, "within bound"),
    ("lower", [0] * 10, [1] * 10, "worse"),
], ids=["same", "lower-better", "higher-better", "too-few-wins", "lower-worse", "higher-worse",
        "inside-spread", "wide-spread", "zero", "from-zero"])
def test_verdict(better, parent, change, verdict):
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.1}
    assert judge(metric, runs(parent, change))["verdict"] == verdict


@pytest.mark.parametrize("pairs, verdict", [
    (runs([10] * 8, [9] * 8) + runs([10] * 2, [9] * 2, correct=False), "within bound"),
    (runs([10] * 10, [9] * 10, failed=(0, 1)), "within bound"),
    (runs([10] * 10, [9] * 10, failed=(1, 1)), "better"),
    (runs([10] * 5, [9] * 5), "within bound"),
], ids=["failed-run-is-a-loss", "more-failed-operations", "same-failed-operations",
        "too-few-pairs"])
def test_better_needs_every_pair_and_no_more_failures(pairs, verdict):
    metric = {"name": "m", "unit": "u", "better": "lower", "bound": 0.1}
    assert judge(metric, pairs)["verdict"] == verdict


def test_a_pair_with_a_failed_run_is_left_out():
    metric = {"name": "m", "unit": "u", "better": "lower", "bound": 0.1}
    judged = judge(metric, runs([10] * 9, [9] * 9) + runs([99], [1], correct=False))
    assert (judged["pairs"], judged["wins"], judged["parent_median"]) == (9, 9, 10)
