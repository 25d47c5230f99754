"""Scenario runner: JSON config in, JSON/CSV reports out.

Every number a run emits is a pure function of (config, seed); wall-clock
time and other volatile facts go to a separate meta file so the report and
table files can be compared byte for byte across reruns and thread counts.
Files are written to a temporary name and renamed into place, so a crashed
run never leaves a partial report behind.  Tables travel as columns; each
CSV is streamed to its temporary file in blocks of rows, every block one
printf over a row format chosen once per column, so even the pairwise slack
ledger is never held whole as text.

Exit codes separate the two failure families: 1 means the configuration is
wrong (schema violation, missing file, parameter out of range), 2 means the
mathematics said no (no spectral gap, singular kernel step, failed verify).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import jsonschema
import numpy as np

from . import __version__
from .admissibility import (
    one_sided_boundary,
    operator_norm_T,
    oracle_solve,
    run_counterexample,
    solve_admissibility,
    two_sided_boundary,
    uniqueness_probe,
)
from .dichotomy import ProjectionFamily, beta_range, verify_dichotomy
from .errors import AnalysisError, ConfigError, DicholabError
from .rates import make_nu, make_rate
from .robustness import (
    PerturbationSpec,
    check_beta,
    geometric_gamma,
    make_perturbation,
    verify_persistence,
)
from .splitting import GAP_THRESHOLD, characterize
from .system import make_planted_model, system_from_json

INPUT_STREAM = 21


def _schema() -> dict:
    text = resources.files("dicholab").joinpath("config_schema.json").read_text()
    return json.loads(text)


def validate_config(cfg: dict) -> None:
    """Schema check with the offending field named by its path."""
    validator = jsonschema.Draft7Validator(_schema())
    errors = sorted(validator.iter_errors(cfg),
                    key=lambda e: [str(p) for p in e.absolute_path])
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {err.message}")


def _require(cfg, key, scenario):
    if key not in cfg:
        raise ConfigError(f"scenario {scenario!r} needs a {key!r} block")
    return cfg[key]


def _build_rate(block):
    window = (int(block["window"][0]), int(block["window"][1]))
    return make_rate(block["kind"], block["domain"], window,
                     table=block.get("table"))


def _build_nu(block, rate):
    block = block or {"kind": "uniform"}
    return make_nu(block.get("kind", "uniform"), rate,
                   c=block.get("c", 1.0), epsilon=block.get("epsilon", 0.0),
                   table=block.get("table"))


def _build_system(cfg, seed):
    """Returns (system, planted model or None, rate, nu)."""
    block = _require(cfg, "system", cfg["scenario"])
    rate = _build_rate(block["rate"])
    nu = _build_nu(block.get("nu"), rate)
    source = block["source"]
    if source == "planted":
        for key in ("lambda_stable", "lambda_unstable", "dims"):
            if key not in block:
                raise ConfigError(f"config field system.{key}: required for a planted system")
        model = make_planted_model(
            rate, nu, block["lambda_stable"], block["lambda_unstable"],
            dims=(int(block["dims"][0]), int(block["dims"][1])),
            cond=float(block.get("cond", 1.0)), seed=int(seed))
        return model.system, model, rate, nu
    if source == "inline":
        if "data" not in block:
            raise ConfigError("config field system.data: required for an inline system")
        system = system_from_json(block["data"])
    else:
        path = block.get("path")
        if not path:
            raise ConfigError("config field system.path: required for a file system")
        if not os.path.isfile(path):
            raise ConfigError(f"config field system.path: no such file {path!r}")
        with open(path, encoding="utf-8") as fh:
            system = system_from_json(json.load(fh))
    if system.window != rate.window or system.domain != rate.domain:
        raise ConfigError("config field system.rate: window/domain differ from the system data")
    return system, None, rate, nu


def _characterize_args(cfg, model):
    """characterize keywords from the config: its gap threshold, tail horizon
    and, when the system is planted and the config allows it, the planted
    hint.  Every scenario that characterizes, perturbed runs included, uses
    these."""
    cblock = cfg.get("characterize", {})
    hint = None
    if model is not None and cblock.get("use_planted_hint", True):
        hint = model.kernel_basis_at_start
    return {"boundary_hint": hint,
            "gap_threshold": cblock.get("gap_threshold", GAP_THRESHOLD),
            "tail_horizon": cblock.get("tail_horizon")}


def _resolve_projections(cfg, system, model, rate, nu):
    """Returns (system, rate, nu, projections); characterize-based resolution
    trims the window, so the aligned restrictions come back too."""
    src = cfg.get("projections", {}).get("source")
    if src is None:
        src = "planted" if model is not None else "characterize"
    if src == "planted":
        if model is None:
            raise ConfigError("config field projections.source: planted projections "
                              "need a planted system")
        return system, rate, nu, model.projections
    if src == "identity":
        w = system.window[1] - system.window[0]
        eye = np.broadcast_to(np.eye(system.dim), (w + 1, system.dim, system.dim)).copy()
        proj = ProjectionFamily(window=system.window, projections=eye,
                                stable_rank=system.dim)
        return system, rate, nu, proj
    res = characterize(system, rate, nu, **_characterize_args(cfg, model))
    return res.system, res.rate, res.nu, res.projections


def _check_betas(betas, model, domain):
    if model is None:
        return
    lo, hi = beta_range(model.certificate, domain)
    for b in betas:
        if not lo < float(b) < hi:
            raise ConfigError(
                f"config field beta: {b:g} outside the certified range ({lo:g}, {hi:g})"
            )


# ---------------------------------------------------------------- scenarios


def _run_verify(cfg, seed):
    system, model, rate, nu = _build_system(cfg, seed)
    system, rate, nu, proj = _resolve_projections(cfg, system, model, rate, nu)
    block = cfg.get("verify", {})
    d_const = block.get("D")
    lam = block.get("lambda")
    if d_const is None or lam is None:
        if model is None:
            raise ConfigError("config field verify: D and lambda are required "
                              "without a planted certificate")
        d_const = model.certificate.D if d_const is None else d_const
        lam = model.certificate.lam if lam is None else lam
    report = verify_dichotomy(system, proj, rate, nu, float(d_const), float(lam),
                              slack_tol=block.get("slack_tol", 1e-8))
    tables = {"slack_table": (("m", "n", "side", "slack"), report.slack_columns())}
    return {"verify": report.to_json()}, report.passed, tables


def _run_characterize(cfg, seed):
    system, model, rate, nu = _build_system(cfg, seed)
    res = characterize(system, rate, nu, **_characterize_args(cfg, model))
    results = {
        "certificate": {"D": res.certificate.D, "lambda": res.certificate.lam,
                        "epsilon": res.certificate.eps},
        "splitting": res.splitting.to_json(),
        "verify": res.verify.to_json(),
    }
    tables = {"splitting_table": (("n", "gap", "min_angle", "proj_norm"),
                                  res.splitting.table_columns())}
    return results, res.verify.passed, tables


def _sample_input(system, seed, stream_index):
    rng = np.random.default_rng([int(seed), INPUT_STREAM, int(stream_index)])
    w = system.window[1] - system.window[0]
    y = rng.standard_normal((w + 1, system.dim))
    if system.domain == "one_sided":
        y[0] = 0.0
    return y


def _run_admissibility(cfg, seed):
    system, model, rate, nu = _build_system(cfg, seed)
    system, rate, nu, proj = _resolve_projections(cfg, system, model, rate, nu)
    betas = cfg.get("beta", [0.0])
    _check_betas(betas, model, system.domain)
    block = cfg.get("admissibility", {})
    boundary = (one_sided_boundary(proj) if system.domain == "one_sided"
                else two_sided_boundary())
    rows = []
    entries = []
    ok = True
    for j, beta in enumerate(betas):
        y = _sample_input(system, seed, j)
        rep = solve_admissibility(system, proj, y, float(beta), rate, nu, boundary)
        oracle_solve(system, proj, y, boundary, reference=rep.solution)
        tnorm = operator_norm_T(system, proj, rate, nu, float(beta),
                                n_samples=block.get("n_samples", 6), seed=int(seed))
        entry = {"beta": float(beta), "report": rep.to_json(),
                 "operator_norm": {
                     "exact_sup": tnorm["exact_sup"],
                     "sampled_lb": tnorm["sampled_lb"],
                     "argmax_pair": list(tnorm["argmax_pair"]),
                 }}
        if block.get("probe_uniqueness") and system.domain == "one_sided":
            z = proj.kernel_basis(system.window[0])
            entry["uniqueness"] = uniqueness_probe(system, proj, rate, nu,
                                                   float(beta), z)
        entries.append(entry)
        ok = ok and rep.max_residual <= 1e-10
        rows.append((float(beta), rep.bound_constant, tnorm["exact_sup"],
                     tnorm["sampled_lb"], rep.max_residual))
    tables = {"admissibility_table": (
        ("beta", "bound_constant", "exact_sup", "sampled_lb", "max_residual"),
        tuple(zip(*rows)))}
    return {"admissibility": entries}, ok, tables


def _perturb_spec(cfg, seed, system):
    block = cfg.get("perturb", {})
    return PerturbationSpec(
        gamma=geometric_gamma(system.window, block.get("gamma_ratio", 0.5)),
        c=float(block.get("c", 0.1)),
        seed=int(block.get("pert_seed", seed)),
        beta=float(block.get("beta", 0.0)))


def _run_perturb(cfg, seed):
    system, model, rate, nu = _build_system(cfg, seed)
    spec = _perturb_spec(cfg, seed, system)
    cert = model.certificate if model is not None else None
    b = make_perturbation(system, rate, nu, spec, certificate=cert)
    report = verify_persistence(system, b, rate, nu, spec,
                                **_characterize_args(cfg, model))
    n = np.arange(report.window[0], report.window[0] + report.drift.size)
    tables = {"drift_table": (("n", "drift"), (n, report.drift))}
    return {"persistence": report.to_json()}, report.verdict == "persisted", tables


def _run_counterexample(cfg, seed):
    n_max = cfg.get("counterexample", {}).get("n_max", 10)
    rows = run_counterexample(int(n_max))
    tables = {"counterexample_table": (("n", "log_x", "log_bound"), tuple(zip(*rows)))}
    return {"counterexample": {
        "n_max": int(n_max),
        "rows": [{"n": int(n), "log_x": x, "log_bound": b} for n, x, b in rows],
    }}, True, tables


# ------------------------------------------------------------------- sweep


def _safe_point(fn, index, value, width):
    try:
        cells = fn(index, value)
        return tuple(cells) + ("ok",)
    except DicholabError as e:
        return (value,) + (math.nan,) * (width - 1) + (f"error: {type(e).__name__}",)


def _run_sweep(cfg, seed, threads):
    block = _require(cfg, "sweep", "sweep")
    axis = block["axis"]
    values = block["values"]

    if axis == "beta":
        system, model, rate, nu = _build_system(cfg, seed)
        system, rate, nu, proj = _resolve_projections(cfg, system, model, rate, nu)

        def point(_i, v):
            t = operator_norm_T(system, proj, rate, nu, float(v), seed=int(seed))
            return (float(v), t["exact_sup"], t["sampled_lb"])

        header = ("beta", "exact_sup", "sampled_lb", "status")
    elif axis in ("c", "seed"):
        system, model, rate, nu = _build_system(cfg, seed)
        base_spec = _perturb_spec(cfg, seed, system)
        if model is not None:
            # the range check the perturb scenario makes, once for all points
            check_beta(base_spec.beta, model.certificate, system.domain)
        kwargs = _characterize_args(cfg, model)
        # the unperturbed base is shared by every point; its family's march
        # record is complete before the pool starts, so threads only read it
        try:
            base, base_error = characterize(system, rate, nu, **kwargs), None
        except DicholabError as e:
            base, base_error = None, e

        def point(_i, v):
            if axis == "c":
                spec = PerturbationSpec(gamma=base_spec.gamma, c=float(v),
                                        seed=base_spec.seed, beta=base_spec.beta)
                lead = float(v)
            else:
                spec = PerturbationSpec(gamma=base_spec.gamma, c=base_spec.c,
                                        seed=int(v), beta=base_spec.beta)
                lead = int(v)
            b = make_perturbation(system, rate, nu, spec)
            if base_error is not None:
                raise base_error
            rep = verify_persistence(system, b, rate, nu, spec, base=base, **kwargs)
            return (lead, rep.margin, rep.verdict, rep.max_drift)

        header = (axis, "margin", "verdict", "max_drift", "status")
    elif axis == "window":
        sys_block = _require(cfg, "system", "sweep")
        if sys_block["source"] != "planted":
            raise ConfigError("config field sweep.axis: window sweeps need a planted system")

        def point(_i, v):
            sub = dict(cfg)
            sub_system = {k: w for k, w in sys_block.items()}
            sub_rate = dict(sub_system["rate"])
            sub_rate["window"] = [sub_rate["window"][0], int(v)]
            sub_system["rate"] = sub_rate
            sub["system"] = sub_system
            system, model, rate, nu = _build_system(sub, seed)
            res = characterize(system, rate, nu, **_characterize_args(cfg, model))
            return (int(v), res.certificate.lam, res.certificate.D)

        header = ("window_hi", "lambda_hat", "D_hat", "status")
    else:  # pragma: no cover - schema rejects other axes
        raise ConfigError(f"config field sweep.axis: unknown axis {axis!r}")

    width = len(header) - 1
    rows: list = [None] * len(values)
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        futures = {pool.submit(_safe_point, point, i, v, width): i
                   for i, v in enumerate(values)}
        for fut, i in futures.items():
            rows[i] = fut.result()
    indexed = [(i,) + tuple(row) for i, row in enumerate(rows)]
    results = {"sweep": {"axis": axis, "rows": [
        dict(zip(("index",) + header, r)) for r in indexed
    ]}}
    tables = {"sweep_table": (("index",) + header, tuple(zip(*indexed)))}
    return results, True, tables


# ---------------------------------------------------------------- emission


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


#: printf conversion per numpy dtype kind; any other column is formatted
#: cell by cell with _fmt_cell and written with %s
_CONVERSIONS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}

#: rows formatted per write, so no table is ever held whole as text
CSV_CHUNK_ROWS = 4096


def _csv_chunks(header, columns):
    """A table as CSV text in chunks: the header line, then blocks of rows,
    each block one printf over the repeated row format."""
    yield ",".join(header) + "\n"
    convs, cols = [], []
    for col in columns:
        conv = _CONVERSIONS.get(col.dtype.kind) if isinstance(col, np.ndarray) else None
        convs.append(conv or "%s")
        cols.append(col if conv else [_fmt_cell(c) for c in col])
    row, width = ",".join(convs) + "\n", len(cols)
    for lo in range(0, len(cols[0]), CSV_CHUNK_ROWS):
        block = [c[lo:lo + CSV_CHUNK_ROWS] for c in cols]
        cells = [None] * (width * len(block[0]))
        for j, c in enumerate(block):
            cells[j::width] = c.tolist() if isinstance(c, np.ndarray) else c
        yield (row * len(block[0])) % tuple(cells)


def _atomic_write(path: str, chunks) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # chunks are formatted while the file is open; one that fails must
        # not leave its temporary file behind
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out_dir, cfg, results, passed, tables, formats, wall_time):
    os.makedirs(out_dir, exist_ok=True)
    if "json" in formats:
        report = {
            "scenario": cfg["scenario"],
            "version": __version__,
            "seed": cfg.get("seed", 0),
            "config": cfg,
            "results": results,
            "verdict": "pass" if passed else "fail",
        }
        text = json.dumps(_sanitize(report), indent=2, sort_keys=True,
                          allow_nan=False)
        _atomic_write(os.path.join(out_dir, "report.json"), [text, "\n"])
    if "csv" in formats:
        for name, (header, columns) in tables.items():
            _atomic_write(os.path.join(out_dir, f"{name}.csv"),
                          _csv_chunks(header, columns))
    meta = {"wall_time_s": wall_time, "version": __version__}
    _atomic_write(os.path.join(out_dir, "run_meta.json"),
                  [json.dumps(meta, indent=2, sort_keys=True), "\n"])


def run(cfg: dict, out_dir: str = "out", threads: int = 1) -> int:
    """Validate, dispatch, emit; returns the process exit code."""
    validate_config(cfg)
    scenario = cfg["scenario"]
    seed = int(cfg.get("seed", 0))
    formats = cfg.get("formats", ["json", "csv"])
    t0 = time.monotonic()
    try:
        if scenario == "verify":
            results, passed, tables = _run_verify(cfg, seed)
        elif scenario == "characterize":
            results, passed, tables = _run_characterize(cfg, seed)
        elif scenario == "admissibility":
            results, passed, tables = _run_admissibility(cfg, seed)
        elif scenario == "perturb":
            results, passed, tables = _run_perturb(cfg, seed)
        elif scenario == "counterexample":
            results, passed, tables = _run_counterexample(cfg, seed)
        else:
            results, passed, tables = _run_sweep(cfg, seed, threads)
    except AnalysisError as e:
        results = {"error": {"type": type(e).__name__, "message": str(e)}}
        _emit(out_dir, cfg, results, False, {}, formats, time.monotonic() - t0)
        print(f"analysis failure: {e}", file=_sys.stderr)
        return 2
    _emit(out_dir, cfg, results, passed, tables, formats, time.monotonic() - t0)
    if not passed:
        print("verdict: fail", file=_sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dicholab",
        description="Numerical laboratory for weighted dichotomies of "
                    "linear difference equations.")
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--scenario", help="override the config's scenario")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config's seed")
    parser.add_argument("--format", help="comma list of outputs: json,csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep scenarios")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file {args.config!r} does not exist")
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if args.scenario:
            cfg["scenario"] = args.scenario
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.format:
            cfg["formats"] = [f.strip() for f in args.format.split(",") if f.strip()]
        return run(cfg, out_dir=args.out_dir, threads=args.threads)
    except ConfigError as e:
        print(f"configuration error: {e}", file=_sys.stderr)
        return 1
    except AnalysisError as e:
        print(f"analysis failure: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
