"""scripts/compare_outputs.py on two small hand-made run directories."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_run(root, codes, files):
    root.mkdir()
    (root / "exit_codes.json").write_text(json.dumps(codes))
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _report(x, rows, verdict):
    return json.dumps({"results": {"x": x, "rows": [{"v": v} for v in rows],
                                   "ok": True, "verdict": verdict}})


def test_compare_reports_exit_codes_hashes_and_largest_gaps(tmp_path, capsys):
    header = "m,n,side,slack\n"
    _write_run(tmp_path / "parent", {"w/a": 0, "w/b": 2, "w/c": "OverflowError"}, {
        "w/a/report.json": _report(1.0, [1.0, 2.0, None], "pass"),
        "w/a/slack_table.csv": header + "0,0,stable,0.5\n1,0,stable,-1\n1,1,unstable,nan\n",
        "w/a/run_meta.json": '{"wall_time_s": 1.0}',
        "w/b/report.json": _report(3.0, [], "fail"),
        "w/b/gone.csv": header,
        "w/b/t.csv": header + "0,0,stable,1\n1,0,stable,2\n",
    })
    _write_run(tmp_path / "change", {"w/a": 0, "w/b": 0, "w/c": "OverflowError"}, {
        "w/a/report.json": _report(1.0, [1.5, 2.25, None], "fail"),
        "w/a/slack_table.csv": header + "0,0,stable,0.5\n1,0,stable,-1.25\n1,1,unstable,nan\n",
        "w/a/run_meta.json": '{"wall_time_s": 2.0}',
        "w/b/report.json": _report(3.0, [], "fail"),
        "w/b/t.csv": header + "0,0,stable,1\n",
    })
    result = compare_outputs.compare(str(tmp_path / "parent"), str(tmp_path / "change"))
    assert set(result) == {"w/a", "w/b", "w/c"}
    a = result["w/a"]
    assert a["exit"] == (0, 0)
    # run_meta.json holds wall times: never compared
    assert set(a["files"]) == {"report.json", "slack_table.csv"}
    # the largest absolute and the largest relative move, each over the field
    assert a["files"]["report.json"] == {"identical": False, "gaps": {
        "results.rows[].v": (0.5, 0.5 / 1.5), "results.verdict": "differs"}}
    assert a["files"]["slack_table.csv"] == {"identical": False,
                                             "gaps": {"slack": (0.25, 0.2)}}
    b = result["w/b"]
    assert b["exit"] == (2, 0)
    assert b["files"] == {"gone.csv": None, "report.json": {"identical": True},
                          "t.csv": {"identical": False, "gaps": {"rows": "differs"}}}
    assert result["w/c"] == {"exit": ("OverflowError", "OverflowError"), "files": {}}
    assert not compare_outputs.same(result)
    assert compare_outputs.same({"w/c": result["w/c"]})

    assert compare_outputs.main(["diff", str(tmp_path / "parent"),
                                 str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["w/a: exit 0 -> 0; 0/2 files identical",
                       "  report.json: differs",
                       "    results.verdict: differs",
                       "    results.rows[].v: 0.5 (rel 0.333)",
                       "  slack_table.csv: differs"]
    assert "w/b: exit 2 -> 0; 1/3 files identical" in out
    assert "  gone.csv: on one side only" in out


def test_gaps_treat_equal_infinities_and_nans_as_equal():
    gap = compare_outputs._gap
    assert gap(float("nan"), float("nan")) == (0.0, 0.0)
    assert gap(float("inf"), float("inf")) == (0.0, 0.0)
    assert gap(float("inf"), 1.0) == (float("inf"), float("inf"))
    assert gap(-1.0, 1.0) == (2.0, 2.0)
    assert gap(0.0, 1e-300) == (1e-300, 1.0)


def test_gaps_read_a_large_value_s_move_relative_to_it(tmp_path, capsys):
    # a D of 2343.6 that moves by 2.5e-9 is a 1e-12 move, and a slack near
    # zero that moves by 1e-13 is a large one: the report prints both
    d, slack = 2343.6, 1e-13
    _write_run(tmp_path / "parent", {"w/a": 0}, {
        "w/a/report.json": json.dumps({"D": d, "slack": slack})})
    _write_run(tmp_path / "change", {"w/a": 0}, {
        "w/a/report.json": json.dumps({"D": d + 2.5e-9, "slack": 2 * slack})})
    result = compare_outputs.compare(str(tmp_path / "parent"), str(tmp_path / "change"))
    gaps = result["w/a"]["files"]["report.json"]["gaps"]
    assert gaps["D"][0] == pytest.approx(2.5e-9, rel=1e-3)
    assert gaps["D"][1] == pytest.approx(2.5e-9 / 2343.6, rel=1e-3)
    assert gaps["slack"] == (slack, 0.5)
    compare_outputs.main(["diff", str(tmp_path / "parent"), str(tmp_path / "change")])
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["    D: 2.5e-09 (rel 1.07e-12)", "    slack: 1e-13 (rel 0.5)"]


def test_corpus_draws_are_fixed_and_run_through_main(tmp_path):
    # the same derandomized configs on every call, each run by cli.main into
    # its own directory beside its config, keyed like the operations
    drawn = compare_outputs.draw_corpus(2)
    assert drawn == compare_outputs.draw_corpus(2)
    assert {name: len(cfgs) for name, cfgs in drawn.items()} == \
        {name: 2 for name in compare_outputs.CORPUS}
    codes = compare_outputs.run_corpus(str(tmp_path), 1)
    assert sorted(codes) == sorted(f"corpus/{name}/000" for name in compare_outputs.CORPUS)
    assert set(codes.values()) <= {0, 1, 2}
    for key, code in codes.items():
        assert json.loads((tmp_path / f"{key}.json").read_text()) == drawn[key.split("/")[1]][0]
        assert (tmp_path / key / "report.json").is_file() == (code != 1)
    (tmp_path / "exit_codes.json").write_text(json.dumps(codes))
    assert compare_outputs.same(compare_outputs.compare(str(tmp_path), str(tmp_path)))
