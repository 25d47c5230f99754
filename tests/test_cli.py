"""End-to-end runs of the scenario runner.

Most tests drive run()/main() in process so coverage tools see them; one
test goes through a real subprocess to pin down the module entry point.
Determinism tests compare emitted files byte for byte.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicholab import ConfigError, cli, dichotomy, robustness
from dicholab.cli import main, run, validate_config

from helpers import reference_csv, reference_json_text


def planted_cfg(scenario, window=(0, 30), dims=(1, 1), cond=2.0, **extra):
    cfg = {
        "scenario": scenario,
        "seed": 3,
        "system": {
            "source": "planted",
            "rate": {"kind": "exponential", "domain": "one_sided",
                     "window": list(window)},
            "lambda_stable": 1.0,
            "lambda_unstable": 1.0,
            "dims": list(dims),
            "cond": cond,
        },
    }
    cfg.update(extra)
    return cfg


def read_json(out_dir, name="report.json"):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------------------- config checks


def test_schema_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="config field scenario"):
        validate_config({"scenario": "frobnicate"})


def test_schema_rejects_bad_nested_field():
    cfg = planted_cfg("verify")
    cfg["system"]["rate"]["kind"] = "hyperbolic"
    with pytest.raises(ConfigError, match="config field system.rate.kind"):
        validate_config(cfg)


def test_schema_rejects_extra_keys():
    cfg = planted_cfg("verify")
    cfg["extras"] = True
    with pytest.raises(ConfigError, match="config field"):
        validate_config(cfg)


def test_beta_outside_certified_range(tmp_path):
    cfg = planted_cfg("admissibility", beta=[5.0])
    with pytest.raises(ConfigError, match="outside the certified range"):
        run(cfg, out_dir=str(tmp_path))


def test_main_missing_and_malformed_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(bad)]) == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", str(arr)]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error") == 3


# ------------------------------------------------------------------ scenarios


def test_counterexample_scenario(tmp_path):
    cfg = {"scenario": "counterexample", "counterexample": {"n_max": 10}}
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rep = read_json(str(tmp_path))
    assert rep["verdict"] == "pass"
    rows = rep["results"]["counterexample"]["rows"]
    assert len(rows) == 10
    bounds = [r["log_bound"] for r in rows]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    header, data = read_csv(str(tmp_path), "counterexample_table.csv")
    assert header == ["n", "log_x", "log_bound"]
    assert len(data) == 10
    assert data[0][0] == "1"


def test_verify_worked_example(tmp_path):
    cfg = {
        "scenario": "verify",
        "seed": 0,
        "system": {
            "source": "planted",
            "rate": {"kind": "doubly_exponential", "domain": "one_sided",
                     "window": [0, 20]},
            "lambda_stable": 0.5,
            "lambda_unstable": 0.5,
            "dims": [1, 0],
        },
    }
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rep = read_json(str(tmp_path))
    assert rep["verdict"] == "pass"
    v = rep["results"]["verify"]
    assert v["passed"] is True
    assert v["max_slack_stable"] <= 1e-12
    header, data = read_csv(str(tmp_path), "slack_table.csv")
    assert header == ["m", "n", "side", "slack"]
    stable = [row for row in data if row[2] == "stable"]
    # all pairs m >= n on a window of 21 points
    assert len(stable) == 21 * 22 // 2
    assert all(float(row[3]) <= 1e-12 for row in stable)
    # no unstable directions planted: that side only carries -inf diagonals
    assert all(row[3] == "-inf" for row in data if row[2] == "unstable")


def test_verify_identity_inline_fails(tmp_path):
    from dicholab import LinearSystem, system_to_json
    import numpy as np

    sys_doc = system_to_json(LinearSystem.from_matrices(
        np.stack([np.eye(2)] * 8), "one_sided", (0, 8)))
    cfg = {
        "scenario": "verify",
        "system": {
            "source": "inline",
            "rate": {"kind": "exponential", "domain": "one_sided",
                     "window": [0, 8]},
            "data": sys_doc,
        },
        "projections": {"source": "identity"},
        "verify": {"D": 1.0, "lambda": 0.5},
    }
    assert run(cfg, out_dir=str(tmp_path)) == 2
    rep = read_json(str(tmp_path))
    assert rep["verdict"] == "fail"
    assert rep["results"]["verify"]["passed"] is False


def test_inline_requires_verify_constants(tmp_path):
    from dicholab import LinearSystem, system_to_json
    import numpy as np

    sys_doc = system_to_json(LinearSystem.from_matrices(
        np.stack([np.eye(2)] * 4), "one_sided", (0, 4)))
    cfg = {
        "scenario": "verify",
        "system": {
            "source": "inline",
            "rate": {"kind": "exponential", "domain": "one_sided",
                     "window": [0, 4]},
            "data": sys_doc,
        },
        "projections": {"source": "identity"},
    }
    with pytest.raises(ConfigError, match="D and lambda"):
        run(cfg, out_dir=str(tmp_path))


def test_characterize_scenario(tmp_path):
    cfg = planted_cfg("characterize", window=(0, 40))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rep = read_json(str(tmp_path))
    cert = rep["results"]["certificate"]
    assert cert["lambda"] == pytest.approx(1.0, abs=1e-3)
    header, data = read_csv(str(tmp_path), "splitting_table.csv")
    assert header == ["n", "gap", "min_angle", "proj_norm"]
    win = rep["results"]["splitting"]["window"]
    assert len(data) == win[1] - win[0] + 1


def test_admissibility_scenario(tmp_path):
    cfg = planted_cfg("admissibility", window=(0, 40), cond=3.0,
                      beta=[0.25, -0.25],
                      admissibility={"probe_uniqueness": True})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rep = read_json(str(tmp_path))
    entries = rep["results"]["admissibility"]
    assert [e["beta"] for e in entries] == [0.25, -0.25]
    for e in entries:
        assert e["report"]["max_residual"] <= 1e-10
        assert e["operator_norm"]["sampled_lb"] <= e["operator_norm"]["exact_sup"]
        assert "verdict" in e["uniqueness"]
    header, data = read_csv(str(tmp_path), "admissibility_table.csv")
    assert header == ["beta", "bound_constant", "exact_sup", "sampled_lb",
                      "max_residual"]
    assert len(data) == 2


def test_perturb_scenario(tmp_path):
    cfg = planted_cfg("perturb", cond=3.0, perturb={"c": 0.05})
    cfg["seed"] = 1
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rep = read_json(str(tmp_path))
    p = rep["results"]["persistence"]
    assert p["verdict"] == "persisted"
    assert p["margin"] < 1.0
    header, data = read_csv(str(tmp_path), "drift_table.csv")
    assert header == ["n", "drift"]
    assert len(data) == len(p["drift"])
    assert int(data[0][0]) == p["window"][0]


def test_sweep_window_axis_recovers_rate(tmp_path):
    cfg = planted_cfg("sweep", sweep={"axis": "window", "values": [20, 40]})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rows = read_json(str(tmp_path))["results"]["sweep"]["rows"]
    for row in rows:
        assert row["status"] == "ok"
        assert row["lambda_hat"] == pytest.approx(1.0, abs=2e-3)


def test_sweep_failed_point_becomes_error_row(tmp_path):
    cfg = planted_cfg("sweep", sweep={"axis": "window", "values": [1, 20]})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rows = read_json(str(tmp_path))["results"]["sweep"]["rows"]
    assert rows[0]["status"] == "error: ConfigError"
    assert rows[0]["lambda_hat"] is None
    assert rows[1]["status"] == "ok"
    _, data = read_csv(str(tmp_path), "sweep_table.csv")
    assert data[0][2] == "nan" and data[0][4] == "error: ConfigError"


def dexp_cfg(scenario, window=(0, 9), **extra):
    # raw A_7 on these windows is exp(e^8 - e^7), far beyond a double
    cfg = planted_cfg(scenario, window=window, cond=1.0, **extra)
    cfg["system"]["rate"]["kind"] = "doubly_exponential"
    return cfg


@pytest.mark.parametrize("dims", [(0, 1), (1, 1), (2, 1)])
def test_admissibility_unrepresentable_step_reports(tmp_path, dims):
    # the step scale is checked on every step, with or without a stable side
    assert run(dexp_cfg("admissibility", beta=[0.1], dims=dims), out_dir=str(tmp_path)) == 2
    rep = read_json(str(tmp_path))
    assert rep["verdict"] == "fail"
    err = rep["results"]["error"]
    assert err["type"] == "RepresentabilityError"
    assert "coefficient at n=7" in err["message"]


def test_sweep_beta_unrepresentable_step_is_error_row(tmp_path):
    cfg = dexp_cfg("sweep", sweep={"axis": "beta", "values": [0.1]})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rows = read_json(str(tmp_path))["results"]["sweep"]["rows"]
    assert rows[0]["status"] == "error: RepresentabilityError"
    assert rows[0]["sampled_lb"] is None


def test_perturb_margin_needs_no_raw_step(tmp_path):
    # the trimmed window (0, 9) still holds A_7: the margin is log-domain only
    cfg = dexp_cfg("perturb", window=(0, 12), perturb={"c": 0.05})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    p = read_json(str(tmp_path))["results"]["persistence"]
    assert p["window"] == [0, 9]
    assert p["margin"] is not None and p["margin"] > 0.0


def test_perturb_unrepresentable_budget_reports(tmp_path):
    # beta = -0.1 on mu_n = exp(e^n): the budget at n=9 is exp(0.1 e^9 (e - 1))
    cfg = dexp_cfg("perturb", window=(0, 12), perturb={"c": 0.05, "beta": -0.1})
    assert run(cfg, out_dir=str(tmp_path)) == 2
    err = read_json(str(tmp_path))["results"]["error"]
    assert err["type"] == "RepresentabilityError"
    assert "n=9" in err["message"]


# -------------------------------------------------------------- table writer


def _writer_tables():
    rng = np.random.default_rng(7)
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                        1.797e308, 0.1, 1.0, 1e17, -2.5e-310, 1 / 3])
    k = special.size
    with np.errstate(over="ignore"):
        f32 = special.astype(np.float32)  # 1.797e308 becomes inf
    big = 2 * cli.CSV_CHUNK_ROWS + 5
    big_vals = rng.standard_normal(big) * 10.0 ** rng.integers(-300, 300, big)
    big_vals[::97] = special[np.arange(big_vals[::97].size) % k]
    return {
        "special": (("f", "f32", "i", "u", "s", "b"), (
            special, f32, np.arange(-5, k - 5),
            np.arange(k, dtype=np.uint64), np.array(["stable", "unstable"] * (k // 2)),
            np.arange(k) % 3 == 0)),
        "mixed-sweep": (("index", "c", "margin", "verdict", "flag", "status"), (
            (0, 1, 2, 3),
            (0, 0.1, 3, np.float64(2.5)),
            (0.0, math.nan, 41.999999999929059, math.nan),
            ("persisted", math.nan, "failed", math.nan),
            (True, np.bool_(False), np.int64(7), None),
            ("ok", "error: NoGapError", "ok", "error: RepresentabilityError"))),
        "zero-rows": (("m", "n", "side", "slack"), (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype="<U8"), np.zeros(0))),
        "multi-chunk": (("m", "side", "slack"), (
            np.arange(big), rng.choice(np.array(["stable", "unstable"]), big), big_vals)),
    }


@pytest.mark.parametrize("name", sorted(_writer_tables()))
def test_table_writer_matches_row_formatter(tmp_path, name):
    header, columns = _writer_tables()[name]
    cli._emit(str(tmp_path), {"scenario": "verify"}, {}, True,
              {name: (header, columns)}, ["csv"], 0.0)
    with open(tmp_path / f"{name}.csv", "rb") as fh:
        got = fh.read()
    assert got == reference_csv(header, list(zip(*columns))).encode("utf-8")


def test_table_writer_streams_in_chunks():
    header, columns = _writer_tables()["multi-chunk"]
    chunks = list(cli._csv_chunks(header, columns))
    # the header, two full blocks and the 5 rows left over
    assert len(chunks) == 4
    assert [c.count("\n") for c in chunks] == [1, cli.CSV_CHUNK_ROWS,
                                                 cli.CSV_CHUNK_ROWS, 5]


# ------------------------------------------------------------- report writer


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.floats().map(np.array),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=3)))
JSON_KEYS = st.one_of(st.text(), st.integers(), st.sampled_from([1, "1"]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(JSON_KEYS, inner, max_size=4)), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(obj=JSON_VALUES)
@example(obj={"b": [math.nan, {"y": -math.inf}], "a": (math.inf, np.float32("nan"))})
@example(obj={1: "int first", "1": "str last", "é\x00\u2028": "ünïcode \x1f\ud7ff"})
@example(obj={"1": np.array(2.5), 1: np.array([[np.nan, 1e16], [1e-05, -0.0]])})
@example(obj=[{}, [], (), "", {"k": []}])
def test_json_writer_matches_the_sanitize_and_dumps_oracle(obj):
    assert cli._json_text(obj) == reference_json_text(obj)


@pytest.mark.parametrize("obj", [set(), object(), [1, {2}], {"k": object()}],
                         ids=["set", "object", "nested-set", "nested-object"])
def test_json_writer_refuses_what_json_cannot_write(obj):
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text(obj)


#: one run per scenario, and one that fails in analysis and reports the error
REPORT_RUNS = {
    "verify": lambda: dexp_cfg("verify", window=(0, 20), dims=(1, 0)),
    "characterize": lambda: planted_cfg("characterize", window=(0, 20)),
    "admissibility": lambda: planted_cfg("admissibility", window=(0, 20), beta=[0.25],
                                         admissibility={"probe_uniqueness": True}),
    "perturb": lambda: planted_cfg("perturb", perturb={"c": 0.05}),
    "counterexample": lambda: {"scenario": "counterexample"},
    "sweep": lambda: planted_cfg("sweep", sweep={"axis": "window", "values": [1, 20]}),
    "analysis-failure": lambda: dexp_cfg("admissibility", beta=[0.1]),
}


@pytest.mark.parametrize("name", sorted(REPORT_RUNS))
def test_report_files_are_the_oracles_bytes_and_a_json_fixed_point(tmp_path, monkeypatch,
                                                                   name):
    written, writer = [], cli._json_text

    def spy(obj, ind="\n"):
        if ind == "\n":
            written.append(obj)
        return writer(obj, ind)

    monkeypatch.setattr(cli, "_json_text", spy)
    run(REPORT_RUNS[name](), out_dir=str(tmp_path))
    texts = [(tmp_path / f).read_text(encoding="utf-8")
             for f in ("report.json", "run_meta.json")]
    for text, obj in zip(texts, written, strict=True):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text == reference_json_text(obj) + "\n"


@pytest.mark.filterwarnings("error")
def test_characterize_doubly_exponential_two_sided(tmp_path):
    # both stable exponents are -inf: the gap between them is 0, not NaN
    cfg = planted_cfg("characterize", window=(0, 23), dims=(2, 2), cond=1.0)
    cfg["seed"] = 0
    cfg["system"]["rate"].update(kind="doubly_exponential", domain="two_sided")
    cfg["system"].update(lambda_stable=0.1, lambda_unstable=0.05)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    split = read_json(str(tmp_path))["results"]["splitting"]
    assert split["stable_exponents"] == [None, None]
    assert len(split["unstable_exponents"]) == 2
    assert split["verdict"] == "pass"


def test_failed_table_leaves_no_temp_file(tmp_path):
    # a column one row short fails while its block is formatted, after the
    # temporary file was opened
    table = (("m", "slack"), (np.arange(3), np.zeros(2)))
    with pytest.raises(ValueError):
        cli._emit(str(tmp_path), {"scenario": "verify"}, {}, True,
                  {"t": table}, ["csv"], 0.0)
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------- determinism


def sweep_cfg():
    return planted_cfg("sweep", cond=3.0,
                       perturb={"c": 0.1},
                       sweep={"axis": "c", "values": [0.01, 0.05, 0.2, 0.5]})


def test_sweep_thread_count_invariant(tmp_path):
    d1, d4 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert run(sweep_cfg(), out_dir=d1, threads=1) == 0
    assert run(sweep_cfg(), out_dir=d4, threads=4) == 0
    for name in ("report.json", "sweep_table.csv"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d4, name), "rb") as fh:
            b4 = fh.read()
        assert b1 == b4, name


# ------------------------------------------------- one march per system


@pytest.fixture
def marches(monkeypatch):
    calls = []
    march = dichotomy._march

    def counted(sys, proj):
        calls.append(sys.window)
        return march(sys, proj)

    monkeypatch.setattr(dichotomy, "_march", counted)
    return calls


@pytest.mark.parametrize("cfg, want", [
    # the base once, then each perturbed system once; the margin folds
    (sweep_cfg(), 5),
    (planted_cfg("sweep", cond=3.0, perturb={"c": 0.1},
                 sweep={"axis": "seed", "values": [1, 2]}), 3),
    (planted_cfg("perturb", cond=3.0, perturb={"c": 0.05}), 2),
    # characterize-sourced projections come back with their own system
    (planted_cfg("admissibility", window=(0, 40), beta=[0.0, 0.2],
                 projections={"source": "characterize"}), 1),
    (planted_cfg("sweep", window=(0, 40), projections={"source": "characterize"},
                 sweep={"axis": "beta", "values": [0.0, 0.2]}), 1),
], ids=["c-sweep", "seed-sweep", "perturb", "admissibility", "beta-sweep"])
def test_march_counts_through_run(tmp_path, marches, cfg, want):
    assert run(cfg, out_dir=str(tmp_path), threads=2) == 0
    assert len(marches) == want


@pytest.mark.parametrize("source, want", [("planted", 1), ("characterize", None)])
def test_admissibility_builds_each_step_record_once(tmp_path, monkeypatch, source, want):
    # the solves of every beta, the sampled operator norm and the march all
    # read one complementary step record per (system, family) pair
    calls = []
    build = dichotomy._restricted_steps

    def counted(sys, proj):
        calls.append((sys, proj))  # held, so no id is reused
        return build(sys, proj)

    monkeypatch.setattr(dichotomy, "_restricted_steps", counted)
    cfg = planted_cfg("admissibility", window=(0, 40), beta=[0.0, 0.2],
                      projections={"source": source}, admissibility={"n_samples": 3})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    pairs = [(id(s), id(p)) for s, p in calls]
    assert pairs and len(set(pairs)) == len(pairs)
    if want is not None:
        assert len(pairs) == want


def test_beta_sweep_reports_a_sampled_bound_above_the_supremum(tmp_path):
    # cond 20 on a short doubly exponential window: the raw-domain solves
    # are inaccurate here; the sweep point makes admissibility's oracle
    # check, so its row reports the mismatch that check reports
    system = {"source": "planted",
              "rate": {"kind": "doubly_exponential", "domain": "two_sided",
                       "window": [-8, 4]},
              "lambda_stable": 1.0, "lambda_unstable": 1.2, "dims": [1, 1],
              "cond": 20.0}
    base = {"seed": 1, "system": system, "projections": {"source": "planted"}}
    d1, d2 = str(tmp_path / "sweep"), str(tmp_path / "admissibility")
    cfg = dict(base, scenario="sweep", sweep={"axis": "beta", "values": [0.0]})
    assert run(cfg, out_dir=d1) == 0
    row = read_json(d1)["results"]["sweep"]["rows"][0]
    assert row["status"] == "error: OracleMismatchError"
    assert row["exact_sup"] is None and row["sampled_lb"] is None
    assert run(dict(base, scenario="admissibility", beta=[0.0]), out_dir=d2) == 2
    assert read_json(d2)["results"]["error"]["type"] == "OracleMismatchError"


def test_beta_sweep_row_fails_where_admissibility_fails(tmp_path):
    # the sampled bound stays below the exact supremum here, so only the
    # oracle check, which the sweep point shares with admissibility, sees
    # that the raw-domain solve is wrong
    system = {"source": "planted",
              "rate": {"kind": "doubly_exponential", "domain": "two_sided",
                       "window": [-6, 4]},
              "lambda_stable": 0.245, "lambda_unstable": 1.985, "dims": [1, 2],
              "cond": 2.63}
    base = {"seed": 22, "system": system, "projections": {"source": "planted"}}
    d1, d2 = str(tmp_path / "sweep"), str(tmp_path / "admissibility")
    assert run(dict(base, scenario="admissibility", beta=[0.0]), out_dir=d2) == 2
    want = read_json(d2)["results"]["error"]["type"]
    assert want == "OracleMismatchError"
    cfg = dict(base, scenario="sweep", sweep={"axis": "beta", "values": [0.0]})
    assert run(cfg, out_dir=d1) == 0
    assert read_json(d1)["results"]["sweep"]["rows"][0]["status"] == f"error: {want}"


def test_beta_sweep_refuses_a_beta_outside_the_certified_range(tmp_path):
    cfg = planted_cfg("sweep", window=(0, 40), sweep={"axis": "beta", "values": [0.5, 5]})
    with pytest.raises(ConfigError, match=r"config field sweep\.values: 5 outside "
                                          r"the certified range \(-1, 1\)"):
        run(cfg, out_dir=str(tmp_path / "sweep"))
    assert not os.path.exists(tmp_path / "sweep")


def test_beta_sweep_honours_n_samples(tmp_path, monkeypatch):
    # the set-up's one scan carries n_samples for every point
    seen = []
    scan = cli.scan_betas

    def spy(*args, **kwargs):
        seen.append(kwargs["n_samples"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_betas", spy)
    cfg = planted_cfg("sweep", window=(0, 40), admissibility={"n_samples": 2},
                      sweep={"axis": "beta", "values": [0.0, 0.3]})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert seen == [2]
    rows = read_json(tmp_path)["results"]["sweep"]["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_one_point_c_sweep_matches_perturb(tmp_path):
    d1, d2 = str(tmp_path / "perturb"), str(tmp_path / "sweep")
    cfg = planted_cfg("perturb", cond=3.0, perturb={"c": 0.2, "beta": 0.1})
    assert run(cfg, out_dir=d1) == 0
    want = read_json(d1)["results"]["persistence"]
    cfg = dict(cfg, scenario="sweep", sweep={"axis": "c", "values": [0.2]})
    assert run(cfg, out_dir=d2) == 0
    row = read_json(d2)["results"]["sweep"]["rows"][0]
    assert row["status"] == "ok"
    assert [row[k] for k in ("c", "margin", "verdict", "max_drift")] == [
        want[k] for k in ("c", "margin", "verdict", "max_drift")]


@pytest.mark.parametrize("axis,key,values", [("c", "c", [0.0, 0.05, 0.2, 0.5]),
                                              ("seed", "pert_seed", [5, 1, 5])],
                         ids=["c", "seed"])
def test_each_sweep_row_is_a_standalone_perturb(tmp_path, axis, key, values):
    # the sweep draws each seed's directions once and reuses them; every row
    # must still read exactly as a perturb run at its value
    cfg = planted_cfg("sweep", cond=3.0, perturb={"c": 0.1, "beta": 0.1},
                      sweep={"axis": axis, "values": values})
    assert run(cfg, out_dir=str(tmp_path / "sweep")) == 0
    rows = read_json(str(tmp_path / "sweep"))["results"]["sweep"]["rows"]
    for j, v in enumerate(values):
        one = planted_cfg("perturb", cond=3.0, perturb={"c": 0.1, "beta": 0.1, key: v})
        assert run(one, out_dir=str(tmp_path / str(j))) in (0, 2)
        want = read_json(str(tmp_path / str(j)))["results"]["persistence"]
        assert rows[j]["status"] == "ok"
        assert repr([rows[j][k] for k in ("margin", "verdict", "max_drift")]) == repr(
            [want[k] for k in ("margin", "verdict", "max_drift")])


@pytest.mark.parametrize("axis,values,draws", [("c", [0.01, 0.05, 0.2, 0.5], 1),
                                               ("seed", [1, 2], 2)], ids=["c", "seed"])
def test_sweep_draws_each_seeds_directions_once(tmp_path, monkeypatch, axis, values, draws):
    calls = []
    stack = robustness.haar_stack

    def counted(seed, stream, *args):
        calls.append(seed)
        return stack(seed, stream, *args)

    monkeypatch.setattr(robustness, "haar_stack", counted)
    cfg = planted_cfg("sweep", cond=3.0, perturb={"c": 0.1},
                      sweep={"axis": axis, "values": values})
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert len(calls) == draws
    assert sorted(set(calls)) == ([3] if axis == "c" else values)


def test_negative_seed_sweep_value_is_refused_before_any_point(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "_persistence_point", refuse)
    cfg = planted_cfg("sweep", window=(0, 20), cond=1.0,
                      sweep={"axis": "seed", "values": [2, -1]})
    with pytest.raises(ConfigError, match=r"^config field sweep\.values: -1 is not a "
                                          r"non-negative seed$"):
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


def test_planted_nu_table_beyond_a_double_is_a_config_error(tmp_path):
    cfg = planted_cfg("characterize", window=(0, 3), cond=1.0)
    cfg["system"]["nu"] = {"kind": "table", "table": [1e300, 1e-300, 1, 1]}
    with pytest.raises(ConfigError, match=r"^planted stable coefficient at n=0 exceeds "
                                          r"the unstable one by log 1e\+300"):
        run(cfg, out_dir=str(tmp_path / "out"))


def test_inline_steps_far_from_one_under_explicit_log_scales_characterize(tmp_path):
    # entries 1e+200 kept as given under log_scale 0: the window product of
    # two such steps overflows a double before any rescaling
    rows = [[1e200, 0.0], [0.0, 1e-3]]
    cfg = {"scenario": "characterize",
           "system": {"source": "inline",
                      "rate": {"kind": "exponential", "domain": "one_sided", "window": [0, 4]},
                      "data": {"dim": 2, "domain": "one_sided", "window": [0, 4],
                               "matrices": [{"n": n, "rows": rows, "log_scale": 0}
                                            for n in range(4)]}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    split = read_json(str(tmp_path / "out"))["results"]["splitting"]
    assert split["unstable_exponents"] == [pytest.approx(math.log(1e200))]
    assert split["stable_exponents"] == [pytest.approx(math.log(1e-3))]


def test_c_sweep_without_gap_is_error_rows(tmp_path):
    # lam_s = lam_u = 0.05: the exponent gap 0.1 is below the threshold 0.2,
    # so the shared base fails and every point reports that failure
    cfg = planted_cfg("sweep", sweep={"axis": "c", "values": [0.05, 0.2, 0.5]})
    cfg["system"]["lambda_stable"] = cfg["system"]["lambda_unstable"] = 0.05
    assert run(cfg, out_dir=str(tmp_path), threads=2) == 0
    rows = read_json(str(tmp_path))["results"]["sweep"]["rows"]
    assert [r["status"] for r in rows] == ["error: NoGapError"] * 3
    assert all(r["margin"] is None for r in rows)


@pytest.mark.parametrize("axis,values", [("c", [0.05]), ("seed", [1, 2])])
def test_persistence_sweep_checks_perturb_beta(tmp_path, axis, values):
    # beta 5 lies outside the planted certificate's range: the sweep refuses
    # it before any point runs, with the error the perturb scenario gives
    cfg = planted_cfg("perturb", window=(0, 40), perturb={"beta": 5.0})
    with pytest.raises(ConfigError) as perturb_err:
        run(cfg, out_dir=str(tmp_path / "perturb"))
    cfg = planted_cfg("sweep", window=(0, 40), perturb={"beta": 5.0},
                      sweep={"axis": axis, "values": values})
    with pytest.raises(ConfigError, match=r"^config field perturb\.beta: 5 outside "
                                          r"the certified range") as sweep_err:
        run(cfg, out_dir=str(tmp_path / "sweep"), threads=2)
    assert str(sweep_err.value) == str(perturb_err.value)
    assert not os.path.exists(tmp_path / "sweep")


def test_perturb_beta_is_checked_before_any_perturbation_is_built(tmp_path, monkeypatch):
    # planted (1, 1) at lambda 1 on a half line: the certified range is (-1, 1)
    cfg = planted_cfg("perturb", window=(0, 20), perturb={"beta": 1.5})

    def refuse(*args):
        raise AssertionError("a perturbation was built")

    monkeypatch.setattr(cli, "make_perturbation", refuse)
    with pytest.raises(ConfigError, match=r"^config field perturb\.beta: 1\.5 outside "
                                          r"the certified range \(-1, 1\)$"):
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")
    monkeypatch.undo()
    cfg["perturb"]["beta"] = 0.5  # inside the range: the run goes ahead
    assert run(cfg, out_dir=str(tmp_path / "ok")) in (0, 2)


@pytest.mark.parametrize("scenario,sweep", [("perturb", None),
                                             ("sweep", {"axis": "c", "values": [0.01]}),
                                             ("sweep", {"axis": "seed", "values": [1]})])
def test_inline_perturbation_weight_is_checked_against_the_base(tmp_path, scenario, sweep):
    # an inline system has no planted certificate: beta 5 is refused against
    # the characterized base's range, about (-0.69, 0.69), with exit code 1
    from dicholab import LinearSystem, system_to_json

    sys_doc = system_to_json(LinearSystem.from_matrices(
        np.stack([np.diag([0.5, 2.0])] * 20), "one_sided", (0, 20)))
    cfg = {"scenario": scenario,
           "system": {"source": "inline", "data": sys_doc,
                      "rate": {"kind": "exponential", "domain": "one_sided",
                               "window": [0, 20]}},
           "perturb": {"c": 0.01, "beta": 5.0}}
    if sweep is not None:
        cfg["sweep"] = sweep
    with pytest.raises(ConfigError, match=r"^config field perturb\.beta: 5 outside "
                                          r"the certified range \(-0\.69"):
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "main")]) == 1
    cfg["perturb"]["beta"] = 0.5  # inside the range: the run goes ahead
    assert run(cfg, out_dir=str(tmp_path / "ok")) in (0, 2)


def test_perturbed_runs_honour_characterize_block(tmp_path):
    # the planted gap is about 2, so a threshold of 5 finds none
    block = {"gap_threshold": 5.0}
    d1, d2 = str(tmp_path / "perturb"), str(tmp_path / "sweep")
    cfg = planted_cfg("perturb", window=(0, 40), perturb={"c": 0.05},
                      characterize=block)
    assert run(cfg, out_dir=d1) == 2
    assert read_json(d1)["results"]["error"]["type"] == "NoGapError"
    cfg = planted_cfg("sweep", window=(0, 40), characterize=block,
                      sweep={"axis": "c", "values": [0.05]})
    assert run(cfg, out_dir=d2) == 0
    assert read_json(d2)["results"]["sweep"]["rows"][0]["status"] == "error: NoGapError"


def test_beta_sweep_threads_share_one_family(tmp_path):
    # every point folds the same projection family's march
    cfg = planted_cfg("sweep", window=(0, 40), cond=3.0,
                      sweep={"axis": "beta", "values": [-0.4, -0.2, 0.0, 0.1, 0.3, 0.5]})
    d1, d4 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert run(cfg, out_dir=d1, threads=1) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(cfg, out_dir=d4, threads=4) == 0
    finally:
        sys.setswitchinterval(interval)
    rows = read_json(d4)["results"]["sweep"]["rows"]
    assert [r["status"] for r in rows] == ["ok"] * 6
    for name in ("report.json", "sweep_table.csv"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d4, name), "rb") as fh:
            b4 = fh.read()
        assert b1 == b4, name


def test_same_seed_rerun_is_byte_identical(tmp_path):
    cfg = planted_cfg("admissibility", window=(0, 40), cond=3.0, beta=[0.2])
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(cfg, out_dir=d1) == 0
    assert run(cfg, out_dir=d2) == 0
    for name in ("report.json", "admissibility_table.csv"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_different_seed_changes_output(tmp_path):
    cfg = planted_cfg("admissibility", window=(0, 40), cond=3.0, beta=[0.2])
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(cfg, out_dir=d1) == 0
    cfg2 = dict(cfg)
    cfg2["seed"] = 4
    assert run(cfg2, out_dir=d2) == 0
    r1, r2 = read_json(d1), read_json(d2)
    c1 = r1["results"]["admissibility"][0]["report"]["bound_constant"]
    c2 = r2["results"]["admissibility"][0]["report"]["bound_constant"]
    assert c1 != c2


def test_no_temp_files_left_behind(tmp_path):
    out = str(tmp_path / "out")
    assert run(planted_cfg("characterize", window=(0, 40)), out_dir=out) == 0
    names = os.listdir(out)
    assert not [n for n in names if ".tmp" in n]
    assert sorted(names) == ["report.json", "run_meta.json",
                             "splitting_table.csv"]


def test_json_only_format(tmp_path):
    cfg = {"scenario": "counterexample", "formats": ["json"]}
    out = str(tmp_path / "out")
    assert run(cfg, out_dir=out) == 0
    names = os.listdir(out)
    assert "report.json" in names
    assert not [n for n in names if n.endswith(".csv")]


# ------------------------------------------------------------- entry points


def test_main_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"scenario": "counterexample", "seed": 0}), encoding="utf-8")
    out = str(tmp_path / "out")
    rc = main(["--config", str(cfg_path), "--out-dir", out, "--seed", "5",
               "--format", "json"])
    assert rc == 0
    rep = read_json(out)
    assert rep["seed"] == 5
    assert not [n for n in os.listdir(out) if n.endswith(".csv")]


def test_module_entry_point_subprocess(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"scenario": "counterexample", "counterexample": {"n_max": 5}}),
        encoding="utf-8")
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "dicholab.cli",
         "--config", str(cfg_path), "--out-dir", out],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = read_json(out)
    assert len(rep["results"]["counterexample"]["rows"]) == 5


IMPORT_GUARD = """\
import json, sys
import dicholab.cli as cli
cfgs = json.loads(sys.stdin.read())
for name, cfg in cfgs.items():
    code = cli.run(cfg, out_dir=f"{sys.argv[1]}/{name}")
    print(json.dumps([name, code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_scipy_is_loaded_only_by_the_admissibility_oracle(tmp_path):
    # a fresh interpreter: the test process has SciPy loaded by the oracles
    cfgs = {
        "characterize": planted_cfg("characterize", window=(0, 20)),
        "verify": dict(planted_cfg("verify", window=(0, 20)), projections={"source": "planted"}),
        "perturb": planted_cfg("perturb", cond=3.0, perturb={"c": 0.05}),
        "c-sweep": planted_cfg("sweep", cond=3.0, perturb={"c": 0.05},
                               sweep={"axis": "c", "values": [0.05, 0.1]}),
        "counterexample": {"scenario": "counterexample", "counterexample": {"n_max": 10}},
        "admissibility": planted_cfg("admissibility", window=(0, 20), beta=[0.25]),
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
                          input=json.dumps(cfgs), capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [name for name, _, _ in runs] == list(cfgs)
    assert all(code == 0 for _, code, _ in runs), runs
    assert all(loaded == [] for _, _, loaded in runs[:-1]), runs
    assert "scipy.sparse" in runs[-1][2]


# ------------------------------------------------------ exit-code contract


@st.composite
def planted_systems(draw):
    """Schema-valid planted system blocks with windows of at most 24 steps."""
    kind = draw(st.sampled_from(["exponential", "polynomial", "logarithmic",
                                 "doubly_exponential"]))
    domain = draw(st.sampled_from(["one_sided", "two_sided"]))
    w = draw(st.integers(2, 24))
    lo = 0 if domain == "one_sided" else -draw(st.integers(0, w))
    ds, du = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda d: sum(d) > 0))
    return {
        "source": "planted",
        "rate": {"kind": kind, "domain": domain, "window": [lo, lo + w]},
        "lambda_stable": draw(st.floats(0.05, 2.0)),
        "lambda_unstable": draw(st.floats(0.05, 2.0)),
        "dims": [ds, du],
        "cond": draw(st.floats(1.0, 5.0)),
    }


CHARACTERIZE_BLOCKS = st.fixed_dictionaries({}, optional={
    "gap_threshold": st.floats(0.01, 5.0),
    "tail_horizon": st.one_of(st.none(), st.integers(1, 10)),
    "use_planted_hint": st.booleans(),
})


@st.composite
def persistence_configs(draw):
    """Schema-valid perturb and c/seed sweep configs on small planted systems."""
    cfg = {"scenario": draw(st.sampled_from(["perturb", "sweep"])),
           "seed": draw(st.integers(0, 50)), "system": draw(planted_systems()),
           "perturb": {"c": draw(st.floats(0.0, 2.0)),
                       "gamma_ratio": draw(st.floats(0.1, 0.9)),
                       "beta": draw(st.sampled_from([0.0, 0.1, -0.1]))}}
    if cfg["scenario"] == "sweep":
        axis = draw(st.sampled_from(["c", "seed"]))
        value = st.floats(0.0, 2.0) if axis == "c" else st.integers(0, 50)
        cfg["sweep"] = {"axis": axis,
                        "values": draw(st.lists(value, min_size=1, max_size=3))}
    if draw(st.booleans()):
        cfg["characterize"] = draw(CHARACTERIZE_BLOCKS)
    return cfg


@st.composite
def analysis_configs(draw):
    """Schema-valid verify and characterize configs on small planted systems."""
    cfg = {"scenario": draw(st.sampled_from(["verify", "characterize"])),
           "seed": draw(st.integers(0, 50)), "system": draw(planted_systems())}
    if cfg["scenario"] == "verify":
        cfg["projections"] = {"source": draw(st.sampled_from(
            ["planted", "characterize", "identity"]))}
        if draw(st.booleans()):
            cfg["verify"] = {"D": draw(st.floats(1.0, 10.0)),
                             "lambda": draw(st.floats(0.05, 2.0))}
    if draw(st.booleans()):
        cfg["characterize"] = draw(CHARACTERIZE_BLOCKS)
    return cfg


@st.composite
def admissibility_configs(draw):
    """Schema-valid admissibility and beta sweep configs on small planted
    systems, with planted, characterized or identity projections."""
    cfg = {"scenario": draw(st.sampled_from(["admissibility", "sweep"])),
           "seed": draw(st.integers(0, 50)), "system": draw(planted_systems()),
           "projections": {"source": draw(st.sampled_from(
               ["planted", "characterize", "identity"]))}}
    betas = draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=2))
    if cfg["scenario"] == "admissibility":
        cfg["beta"] = betas
        cfg["admissibility"] = {"n_samples": draw(st.integers(0, 4))}
        if draw(st.booleans()):
            cfg["admissibility"]["probe_uniqueness"] = True
    else:
        cfg["sweep"] = {"axis": "beta", "values": betas}
    if draw(st.booleans()):
        cfg["characterize"] = draw(CHARACTERIZE_BLOCKS)
    return cfg


def _assert_exit_contract(cfg, threads=1):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        rc = main(["--config", path, "--out-dir", out, "--threads", str(threads)])
        assert rc in (0, 1, 2)
        if rc in (0, 2):
            assert os.path.isfile(os.path.join(out, "report.json"))


@settings(max_examples=25, deadline=None)
@given(cfg=persistence_configs(), threads=st.sampled_from([1, 2]))
# a negative seed sweep value: refused before haar_stack's ValueError
@example(cfg={"scenario": "sweep", "seed": 0, "sweep": {"axis": "seed", "values": [-1]},
              "system": {"source": "planted",
                         "rate": {"kind": "exponential", "domain": "one_sided",
                                  "window": [0, 20]},
                         "lambda_stable": 1.0, "lambda_unstable": 1.0, "dims": [1, 1]}},
         threads=1)
def test_persistence_exit_code_contract(cfg, threads):
    _assert_exit_contract(cfg, threads)


@settings(max_examples=25, deadline=None)
@given(cfg=analysis_configs())
# a planted nu table whose neighbours drop by more than e^709: the planted
# stable block would outgrow a double, refused before math.exp overflows
@example(cfg={"scenario": "characterize", "seed": 0,
              "system": {"source": "planted",
                         "rate": {"kind": "exponential", "domain": "one_sided",
                                  "window": [0, 3]},
                         "nu": {"kind": "table", "table": [1e300, 1e-300, 1, 1]},
                         "lambda_stable": 1.0, "lambda_unstable": 1.0, "dims": [1, 1]}})
def test_analysis_exit_code_contract(cfg):
    _assert_exit_contract(cfg)


@settings(max_examples=25, deadline=None)
@given(cfg=admissibility_configs())
# the impulse's weighted norm underflows to 0 at k* = 8
@example(cfg={"scenario": "sweep", "seed": 1,
              "sweep": {"axis": "beta", "values": [-0.5]},
              "system": {"source": "planted",
                         "rate": {"kind": "doubly_exponential", "domain": "one_sided",
                                  "window": [0, 8]},
                         "lambda_stable": 1.0, "lambda_unstable": 1.0,
                         "dims": [2, 0], "cond": 2.0},
              "projections": {"source": "planted"}})
def test_admissibility_exit_code_contract(cfg):
    _assert_exit_contract(cfg)
