"""The verdict rule of scripts/bench_pairs.py, on made-up pairs of runs, and its
`--chain` of BENCH files, on made-up files."""

import pytest

from scripts.bench_pairs import chain, judge


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


def bench(parent, change, medians):
    """A made-up BENCH file holding, per (workload, metric), its (parent, change) medians."""
    workloads = {}
    for (workload, metric), (p, c) in medians.items():
        workloads.setdefault(workload, {"metrics": {}})["metrics"][metric] = {
            "parent_median": p, "change_median": c}
    return {"parent": parent, "change": change, "workloads": workloads}


def test_chain_multiplies_ratios_and_starts_again_at_a_gap_or_a_missing_metric():
    a, b = ("w", "a"), ("w", "b")
    files = [("A", bench("p1", "c1", {a: (10, 11), b: (2, 1)})),
             ("B", bench("c1", "c2", {a: (20, 30)})),  # no gap before it; it lacks b
             ("C", bench("p3", "c3", {a: (4, 2), b: (1, 3)})),  # a gap: c2 -> p3 changed src/
             ("D", bench("c3", "c4", {a: (1, 2), b: (5, 10)}))]
    diffs = {("c2", "p3"): ["src/redflagcds/engine.py"]}
    gaps, rows = chain(files, lambda x, y: diffs.get((x, y), []))
    assert gaps == [("B", "C", ["src/redflagcds/engine.py"])]
    assert list(rows) == [a, b]
    assert rows[a][0] == ("A", 10, 11, pytest.approx(1.1), pytest.approx(1.1))
    assert [row[4] for row in rows[a]] == pytest.approx([1.1, 1.65, 0.5, 1.0])
    assert rows[b][1] == ("B", None, None, None, None)
    assert [row[4] for row in rows[b]] == [0.5, None, 3.0, 6.0]
