"""scripts/bench_pairs.py's verdicts, on synthetic pairs; no benchmark is run."""

import json

import pytest

from conftest import ROOT, load_script

bench_pairs = load_script("bench_pairs")
RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
HITS = {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1}


def pairs_of(parent: list[float], change: list[float], metric=RUN_S) -> list[tuple[dict, dict]]:
    """Perfbench results carrying only metric's value, one (parent, change) per pair."""
    def result(value):
        return {"metrics": {metric["name"]: {"value": value, "unit": metric["unit"]}}}

    return [(result(p), result(c)) for p, c in zip(parent, change)]


def verdict(parent, change, metric=RUN_S) -> dict:
    return bench_pairs.summarize(pairs_of(parent, change, metric), [metric])[metric["name"]]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # IQR 0.02


class TestClaim:
    def test_better_in_every_pair_by_more_than_the_iqr(self):
        m = verdict(PARENT, [v - 0.1 for v in PARENT])
        assert m["change_better_pairs"] == 10 and m["parent_iqr"] == pytest.approx(0.0175)
        assert m["claim_holds"] and m["within_bound"]

    def test_nine_of_ten_is_enough(self):
        change = [v - 0.1 for v in PARENT]
        change[3] = PARENT[3] + 0.5
        m = verdict(PARENT, change)
        assert m["change_better_pairs"] == 9 and m["claim_holds"]

    def test_eight_of_ten_is_not(self):
        change = [v - 0.1 for v in PARENT]
        change[3], change[4] = PARENT[3] + 0.5, PARENT[4] + 0.5
        m = verdict(PARENT, change)
        assert m["change_better_pairs"] == 8 and not m["claim_holds"]

    def test_ties_count_for_neither_side(self):
        change = [v - 0.1 for v in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        m = verdict(PARENT, change)
        assert m["change_better_pairs"] == 8 and not m["claim_holds"]

    def test_a_median_gap_inside_the_iqr_is_no_claim(self):
        m = verdict(PARENT, [v - 0.01 for v in PARENT])
        assert m["change_better_pairs"] == 10 and not m["claim_holds"]

    def test_higher_is_better_counts_the_other_way(self):
        parent = [10.0, 11.0, 10.0, 12.0, 11.0, 10.0, 11.0, 12.0, 10.0, 11.0]
        up = verdict(parent, [v + 5.0 for v in parent], HITS)
        down = verdict(parent, [v - 5.0 for v in parent], HITS)
        assert up["change_better_pairs"] == 10 and up["claim_holds"] and up["within_bound"]
        assert down["change_better_pairs"] == 0 and not down["claim_holds"] and not down["within_bound"]


class TestBound:
    @pytest.mark.parametrize("factor, within", [(1.24, True), (1.25, True), (1.26, False), (0.5, True)])
    def test_lower_is_better_bound_on_the_medians(self, factor, within):
        parent = [2.0] * 5
        m = verdict(parent, [2.0 * factor] * 5)
        assert m["within_bound"] is within
        assert m["relative_change"] == pytest.approx(factor - 1.0)

    @pytest.mark.parametrize("change, within", [(9.0, True), (8.9, False), (20.0, True)])
    def test_higher_is_better_bound(self, change, within):
        assert verdict([10.0] * 5, [change] * 5, HITS)["within_bound"] is within


def test_metrics_come_from_benchmark_json():
    metrics = bench_pairs.end_to_end_metrics(ROOT)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert metrics == declared
    assert all({"name", "unit", "better", "bound"} <= set(m) for m in metrics)


def test_json_summary_carries_the_verdicts():
    m = verdict(PARENT, [v - 0.1 for v in PARENT])
    assert {"better", "bound", "claim_holds", "within_bound", "change_better_pairs", "parent_iqr"} <= set(m)
    json.dumps(m)  # every field is plain JSON
