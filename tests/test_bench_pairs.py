"""scripts/bench_pairs.py's summary on canned run lines, with no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(pass_s, rss, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": {
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_a_run_record_is_the_last_line_of_output():
    out = "bench: warm-up done\n" + _line(0.5, 80.0) + "\n\n"
    assert bench_pairs.last_json_line(out)["metrics"]["pass_s"]["value"] == 0.5


def test_the_side_that_runs_first_alternates():
    assert [bench_pairs.side_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_canned_pairs():
    parent = [0.50, 0.52, 0.48, 0.51, 0.49]
    change = [0.45, 0.46, 0.50, 0.44, 0.43]
    pairs = [{"parent": bench_pairs.last_json_line(_line(p, 85.0)),
              "change": bench_pairs.last_json_line(_line(c, 84.0 + (i == 2), failed=i == 4))}
             for i, (p, c) in enumerate(zip(parent, change))]
    got = bench_pairs.summarize(pairs, {"pass_s": "lower", "peak_rss_mb": "lower"})
    assert got["pairs"] == 5 and got["correct"] and got["failed"] == 1
    assert got["pass_s"] == {
        "parent_median": 0.50, "parent_quartiles": [0.49, 0.51],
        "change_median": 0.45, "change_quartiles": pytest.approx([0.44, 0.46]),
        "change_better_pairs": 4}
    rss = got["peak_rss_mb"]
    assert rss["change_median"] == 84.0 and rss["change_better_pairs"] == 4
    # one pair alone: its values are their own quartiles
    one = bench_pairs.summarize(pairs[:1], {"pass_s": "higher"})["pass_s"]
    assert one["parent_quartiles"] == [0.50, 0.50] and one["change_better_pairs"] == 0
    pairs[0]["change"]["correct"] = False
    assert not bench_pairs.summarize(pairs, {})["correct"]
