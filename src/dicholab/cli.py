"""Scenario runner: JSON config in, JSON/CSV reports out.

Every number a run emits is a pure function of (config, seed); wall-clock
time and other volatile facts go to a separate meta file so the report and
table files can be compared byte for byte across reruns and thread counts.
Files are written to a temporary name and renamed into place, so a crashed
run never leaves a partial report behind.  A report is written in one walk,
with the bytes ``json.dumps(indent=2, sort_keys=True)`` would write.  Tables
travel as columns; each CSV is streamed to its temporary file in blocks of
rows, every block one printf over a row format chosen once per column, so
even the pairwise slack ledger is never held whole as text.

A sweepable scenario is a set-up step that returns its point function; the
scenario and its sweep axis both call that one function per value.  The
admissibility set-up solves every beta in one scan, which gives per-beta
outcomes, so a beta-sweep row makes the admissibility scenario's checks
(certified beta range, oracle, ``admissibility.n_samples``) and meets its
errors; c and seed sweeps share the perturb scenario's base and persistence
point.

Exit codes separate the two failure families: 1 means the configuration or
the command line is wrong (schema violation, missing file, parameter out of
range, unknown option, an output directory that is a file), 2 means the
mathematics said no (no spectral gap, singular kernel step, failed verify).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import os
import sys as _sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii

import jsonschema
import numpy as np

from . import __version__
from .admissibility import (
    RESIDUAL_TOL,
    one_sided_boundary,
    run_counterexample,
    scan_betas,
    two_sided_boundary,
    uniqueness_probe,
)
from .dichotomy import ProjectionFamily, beta_range, verify_dichotomy
from .errors import AnalysisError, ConfigError, DicholabError
from .rates import check_aligned, make_nu, make_rate
from .robustness import (PerturbationSpec, geometric_gamma, make_perturbation,
                         perturbation_directions, perturbation_radii, verify_persistence)
from .splitting import GAP_THRESHOLD, characterize
from .system import make_planted_model, system_from_json

INPUT_STREAM = 21


#: Draft 7 whose "number" is a finite one: Python's json reads NaN,
#: Infinity and 1e999 as floats, and NaN passes every numeric bound
_TYPES = jsonschema.Draft7Validator.TYPE_CHECKER
_Validator = jsonschema.validators.extend(
    jsonschema.Draft7Validator, type_checker=_TYPES.redefine(
        "number", lambda _, x: _TYPES.is_type(x, "number") and math.isfinite(x)))


@functools.cache
def _schema() -> dict:
    text = resources.files("dicholab").joinpath("config_schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator(definition=None):
    """The schema's validator, or its ``definition``'s, built once per process."""
    schema = _schema()
    return _Validator(schema["definitions"][definition] if definition else schema)


def _check_schema(doc, validator, field="") -> None:
    """ConfigError naming the offending field by its path, below ``field``."""
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: [str(p) for p in e.absolute_path])
    if errors:
        err = errors[0]
        path = ".".join(([field] if field else []) + [str(p) for p in err.absolute_path])
        nonfinite = isinstance(err.instance, float) and not math.isfinite(err.instance)
        message = f"{err.instance} is not a finite number" if nonfinite else err.message
        raise ConfigError(f"config field {path or '<root>'}: {message}")


def validate_config(cfg: dict) -> None:
    """Schema check with the offending field named by its path."""
    _check_schema(cfg, _validator())


def _read_json(path, what):
    """The JSON document in the file at ``path``, or ConfigError naming ``what``."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what}: no such file {path!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ConfigError(f"{what}: {path!r} is not valid JSON: {e}") from e


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config field {key}: required for scenario {cfg['scenario']!r}")
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
    block = _require(cfg, "system")
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
        doc = _read_json(path, "config field system.path")
        _check_schema(doc, _validator("system_document"), "system.path")
        system = system_from_json(doc)
    check_aligned(system, rate)
    if system.domain != rate.domain:
        raise ConfigError("config field system.rate: domain differs from the system data")
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


def _check_betas(betas, certificate, domain, field):
    """ConfigError naming ``field`` unless every beta lies in the certificate's
    admissible weight range; no certificate, no check."""
    if certificate is None:
        return
    lo, hi = beta_range(certificate, domain)
    for b in betas:
        if not lo < float(b) < hi:
            raise ConfigError(f"config field {field}: {b:g} outside the certified "
                              f"range ({lo:g}, {hi:g})")


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
    report = verify_dichotomy(system, proj, rate, nu, float(d_const), float(lam))
    tables = {"slack_table": (("m", "n", "side", "slack"), report.slack_columns())}
    return {"verify": report.to_json()}, report.passed, tables


def _characterize_point(cfg, seed):
    system, model, rate, nu = _build_system(cfg, seed)
    return characterize(system, rate, nu, **_characterize_args(cfg, model))


def _run_characterize(cfg, seed):
    res = _characterize_point(cfg, seed)
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


def _admissibility_point(cfg, seed, betas, field):
    """Set-up for the weights ``betas`` of config field ``field``, range-checked
    here, that solves every weight in one scan (see ``scan_betas``), weight j
    on input stream j, checked against the oracle.  point(j) returns weight
    j's (solve report, operator norm, uniqueness probe or None), or raises the
    first error of its solve, oracle, operator norm and probe."""
    system, model, rate, nu = _build_system(cfg, seed)
    system, rate, nu, proj = _resolve_projections(cfg, system, model, rate, nu)
    _check_betas(betas, model and model.certificate, system.domain, field)
    block = cfg.get("admissibility", {})
    boundary = (one_sided_boundary(proj) if system.domain == "one_sided"
                else two_sided_boundary())
    probe = block.get("probe_uniqueness") and system.domain == "one_sided"
    ys = [_sample_input(system, seed, j) for j in range(len(betas))]
    outcomes = scan_betas(system, proj, ys, [float(b) for b in betas], rate, nu, boundary,
                          n_samples=block.get("n_samples", 6), seed=int(seed))

    def point(j):
        if isinstance(outcomes[j], DicholabError):
            raise outcomes[j]
        rep, tnorm = outcomes[j]
        uniq = (uniqueness_probe(system, proj, rate, nu, float(betas[j]),
                                 proj.kernel_basis(system.window[0])) if probe else None)
        return rep, tnorm, uniq

    return point


def _run_admissibility(cfg, seed):
    betas = cfg.get("beta", [0.0])
    point = _admissibility_point(cfg, seed, betas, "beta")
    rows, entries = [], []
    for j, beta in enumerate(betas):
        rep, tnorm, uniq = point(j)
        entry = {"beta": float(beta), "report": rep.to_json(), "operator_norm": {
            k: tnorm[k] for k in ("exact_sup", "sampled_lb", "argmax_pair")}}
        if uniq is not None:
            entry["uniqueness"] = uniq
        entries.append(entry)
        rows.append((float(beta), rep.bound_constant, tnorm["exact_sup"],
                     tnorm["sampled_lb"], rep.max_residual))
    ok = all(r[-1] <= RESIDUAL_TOL for r in rows)
    tables = {"admissibility_table": (
        ("beta", "bound_constant", "exact_sup", "sampled_lb", "max_residual"),
        tuple(zip(*rows)))}
    return {"admissibility": entries}, ok, tables


def _persistence_point(cfg, seed):
    """(point, base spec) for the perturb block, beta checked against the
    planted or else the base's certificate: point(spec) perturbs within spec's
    budget, then compares with the base or raises the failed base's error."""
    system, model, rate, nu = _build_system(cfg, seed)
    block = cfg.get("perturb", {})
    spec = PerturbationSpec(
        gamma=geometric_gamma(system.window, block.get("gamma_ratio", 0.5)),
        c=float(block.get("c", 0.1)), seed=int(block.get("pert_seed", seed)),
        beta=float(block.get("beta", 0.0)))
    _check_betas([spec.beta], model and model.certificate, system.domain, "perturb.beta")
    kwargs = _characterize_args(cfg, model)
    try:
        base, base_error = characterize(system, rate, nu, **kwargs), None
    except DicholabError as e:
        base, base_error = None, e
    if model is None and base is not None:
        _check_betas([spec.beta], base.certificate, system.domain, "perturb.beta")

    # direction seed -> its Haar stack, drawn at the seed's first point with
    # c > 0; at c = 0 the perturbation is make_perturbation's zeros, no draw
    stacks = {}

    def point(spec):
        rho, key = perturbation_radii(rate, nu, spec), spec.seed
        if spec.c and key not in stacks:
            stacks[key] = perturbation_directions(system, key)
        b = (rho[:, None, None] * stacks[key] if spec.c
             else make_perturbation(system, rate, nu, spec))
        if base_error is not None:
            raise base_error
        return verify_persistence(system, b, rate, nu, spec, base=base, **kwargs)

    return point, spec


def _run_perturb(cfg, seed):
    point, spec = _persistence_point(cfg, seed)
    report = point(spec)
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


def _safe_point(fn, j, value, width):
    try:
        return tuple(fn(j, value)) + ("ok",)
    except DicholabError as e:
        return (value,) + (math.nan,) * (width - 1) + (f"error: {type(e).__name__}",)


def _run_sweep(cfg, seed):
    block = _require(cfg, "sweep")
    axis = block["axis"]
    values = block["values"]

    if axis == "beta":
        point = _admissibility_point(cfg, seed, values, "sweep.values")

        def row(j, v):
            _, t, _ = point(j)
            return (float(v), t["exact_sup"], t["sampled_lb"])

        header = ("beta", "exact_sup", "sampled_lb", "status")
    elif axis in ("c", "seed"):
        bad = [v for v in values if axis == "seed" and not (math.isfinite(v) and int(v) >= 0)]
        if bad:  # refused before any point, as a beta outside its range is
            raise ConfigError(f"config field sweep.values: {bad[0]:g} is not a non-negative seed")
        point, base_spec = _persistence_point(cfg, seed)
        cast = float if axis == "c" else int

        def row(j, v):
            rep = point(dataclasses.replace(base_spec, **{axis: cast(v)}))
            return (cast(v), rep.margin, rep.verdict, rep.max_drift)

        header = (axis, "margin", "verdict", "max_drift", "status")
    else:  # window
        if _require(cfg, "system")["source"] != "planted":
            raise ConfigError("config field sweep.axis: window sweeps need a planted system")

        def row(j, v):
            sub = copy.deepcopy(cfg)
            sub["system"]["rate"]["window"][1] = int(v)
            res = _characterize_point(sub, seed)
            return (int(v), res.certificate.lam, res.certificate.D)

        header = ("window_hi", "lambda_hat", "D_hat", "status")

    width = len(header) - 1
    indexed = [(j,) + _safe_point(row, j, v, width) for j, v in enumerate(values)]
    results = {"sweep": {"axis": axis, "rows": [
        dict(zip(("index",) + header, r)) for r in indexed
    ]}}
    tables = {"sweep_table": (("index",) + header, tuple(zip(*indexed)))}
    return results, True, tables


# ---------------------------------------------------------------- emission


#: JSON text per scalar type, found by exact type before any isinstance check
_JSON_SCALARS = {float: lambda x: float.__repr__(x) if math.isfinite(x) else "null",
                 int: int.__repr__, str: encode_basestring_ascii,
                 bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_text(obj, ind="\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it at line
    indent ``ind``: numpy values as ``tolist()``, inf and NaN null, keys ``str(key)``."""
    fmt = _JSON_SCALARS.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    inner = ind + "  "
    if isinstance(obj, dict):
        parts = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted({str(k): v for k, v in obj.items()}.items())]
        return "{" + inner + ("," + inner).join(parts) + ind + "}" if parts else "{}"
    if isinstance(obj, (list, tuple)):
        parts = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + ind + "]" if parts else "[]"
    if isinstance(obj, (np.ndarray, np.number, np.bool_)):
        return _json_text(obj.tolist(), ind)
    for base in (str, int, float):
        if isinstance(obj, base):
            return _JSON_SCALARS[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
        _atomic_write(os.path.join(out_dir, "report.json"), [_json_text(report), "\n"])
    if "csv" in formats:
        for name, (header, columns) in tables.items():
            _atomic_write(os.path.join(out_dir, f"{name}.csv"),
                          _csv_chunks(header, columns))
    meta = {"wall_time_s": wall_time, "version": __version__}
    _atomic_write(os.path.join(out_dir, "run_meta.json"), [_json_text(meta), "\n"])


def _check_out_dir(out_dir) -> None:
    """ConfigError unless ``out_dir`` is a directory or can be made one: the
    nearest of it and its parents that exists must be a directory."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out-dir {out_dir!r}: {path!r} is not a directory")


_SCENARIOS = {"verify": _run_verify, "characterize": _run_characterize,
              "admissibility": _run_admissibility, "perturb": _run_perturb,
              "counterexample": _run_counterexample, "sweep": _run_sweep}


def run(cfg: dict, out_dir: str = "out", threads: int = 1) -> int:
    """Validate, dispatch, emit; returns the process exit code.  threads is
    accepted and ignored: sweep points run in order, since their small-matrix
    work holds the interpreter lock and a thread pool bought nothing."""
    validate_config(cfg)
    _check_out_dir(out_dir)
    scenario = cfg["scenario"]
    seed = int(cfg.get("seed", 0))
    formats = cfg.get("formats", ["json", "csv"])
    t0 = time.monotonic()
    try:
        results, passed, tables = _SCENARIOS[scenario](cfg, seed)
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
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; sweeps run sequentially")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse's usage error is 2, which means "the mathematics said no"
        return 1 if e.code else 0
    try:
        return run(_read_json(args.config, "config file"), out_dir=args.out_dir,
                   threads=args.threads)
    except ConfigError as e:
        print(f"configuration error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
