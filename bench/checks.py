"""Correctness checks on the files one ``cli.run`` call writes.

No check compares against a stored copy of earlier output.  Each one is
either recomputed apart from the program (closed forms of the planted
model, a dense solve, plain loops) or a property the method must have.
The planted model is used only as the input it is: its coefficients and
projections, read as plain arrays.

``prepare(op)`` builds the expectations once per run, outside any timed or
traced region; ``check(op, expect, out_dir, rc)`` raises ``CheckError`` on
the first violation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

#: recovered and planted splitting geometry agree to this (radians / relative)
ANGLE_TOL = 1e-6
#: closed-form slack rows agree with the emitted ones to this (log units)
SLACK_TOL = 1e-9
#: the dense solve and the reported solution agree to this (relative)
DENSE_TOL = 1e-8
#: recurrence residual bound, the one the solver itself promises
RESIDUAL_TOL = 1e-10
#: planted norms may exceed the reported certificate by this (log units)
CERT_TOL = 1e-6
#: slack for "up to rounding" comparisons (relative)
ROUND_TOL = 1e-9
#: the sweep's derived operator norm is the same at every point to this
MARGIN_RATIO_TOL = 1e-12
#: gamma_ratio the CLI uses when the config gives none
GAMMA_RATIO = 0.5
#: documented input stream of the admissibility scenario
INPUT_STREAM = 21


class CheckError(AssertionError):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


# --------------------------------------------------------------- inputs


def log_mu(kind, window):
    """log mu_n on the window, from the documented closed forms."""
    n = np.arange(window[0], window[1] + 1, dtype=float)
    if kind == "exponential":
        return n
    if kind == "polynomial":
        return np.where(n >= 0, np.log1p(np.maximum(n, 0)), -np.log1p(-np.minimum(n, 0)))
    if kind == "logarithmic":
        return np.log(np.log(2.0 + n))
    if kind == "doubly_exponential":
        return np.exp(n)
    raise ValueError(kind)


def log_nu(block, lm):
    block = block or {"kind": "uniform"}
    if block.get("kind", "uniform") == "uniform":
        return np.full(lm.shape, math.log(block.get("c", 1.0)))
    return np.maximum(0.0, block["epsilon"] * lm)


def planted_inputs(cfg):
    """Raw coefficients A_n and projections P_n of the planted input."""
    from dicholab.rates import make_nu, make_rate
    from dicholab.system import make_planted_model

    s = cfg["system"]
    r = s["rate"]
    rate = make_rate(r["kind"], r["domain"], tuple(r["window"]))
    nu_b = s.get("nu") or {}
    nu = make_nu(nu_b.get("kind", "uniform"), rate, c=nu_b.get("c", 1.0),
                 epsilon=nu_b.get("epsilon", 0.0))
    model = make_planted_model(rate, nu, s["lambda_stable"], s["lambda_unstable"],
                               dims=tuple(s["dims"]), cond=float(s.get("cond", 1.0)),
                               seed=int(cfg["seed"]))
    return model.system.log_scales.copy(), model.system.mats.copy(), \
        model.projections.projections.copy()


def _projection_norms(projs):
    """(||P||, ||I - P||), which the planted frame keeps constant in n."""
    d = projs.shape[1]
    ps = np.linalg.norm(projs, ord=2, axis=(1, 2))
    pu = np.linalg.norm(np.eye(d) - projs, ord=2, axis=(1, 2))
    _require(np.ptp(ps) <= 1e-12 * max(1.0, ps[0]) and np.ptp(pu) <= 1e-12 * max(1.0, pu[0]),
             "planted projection norm is not constant in n")
    return float(ps[0]), float(pu[0])


def _min_angle(p):
    """Smallest principal angle between range(P) and ker(P)."""
    u, s, vt = np.linalg.svd(p)
    k = int(np.sum(s > 0.5))
    if k == 0 or k == p.shape[0]:
        return math.pi / 2.0
    rng, ker = u[:, :k], vt[k:].T
    cos = np.linalg.svd(rng.T @ ker, compute_uv=False)
    return float(np.arccos(min(1.0, float(cos[0]))))


def prepare(op):
    """Expectations for one operation, computed before any timing."""
    cfg = op.cfg
    if op.expect_failure:
        return {}
    s = cfg["system"]
    window = tuple(s["rate"]["window"])
    lm = log_mu(s["rate"]["kind"], window)
    exp = {"window": window, "lm": lm, "ln": log_nu(s.get("nu"), lm),
           "dims": tuple(s["dims"]), "lam_s": s["lambda_stable"],
           "lam_u": s["lambda_unstable"]}
    if cfg["scenario"] in ("characterize", "verify", "admissibility"):
        log_scales, mats, projs = planted_inputs(cfg)
        exp["p_s"], exp["p_u"] = _projection_norms(projs)
        if cfg["scenario"] == "characterize":
            exp["angle"] = _min_angle(projs[0])
        if cfg["scenario"] == "admissibility":
            exp["raw"] = np.exp(log_scales)[:, None, None] * mats
            exp["projs"] = projs
    return exp


# ---------------------------------------------------------------- files


def fingerprint(out_dir):
    """sha256 of every deterministic output file (run_meta.json varies)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "run_meta.json":
            continue
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[name] = h.hexdigest()
    return out


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n))
               for n in os.listdir(out_dir) if n != "run_meta.json")


def _report(out_dir):
    path = os.path.join(out_dir, "report.json")
    _require(os.path.isfile(path), "no report.json written")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(out_dir, name, header):
    with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == list(header), f"{name}.csv header differs")
        return list(reader)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- checks


def check_characterize(op, exp, rep, out_dir):
    res = rep["results"]
    _require(rep["verdict"] == "pass" and res["verify"]["passed"], "verdict is not pass")
    spl = res["splitting"]
    lo, hi = spl["window"]
    w0, w1 = exp["window"]
    _require(w0 <= lo < hi <= w1, f"trimmed window {lo, hi} outside {exp['window']}")
    per_n = spl["per_n"]
    _require([e["n"] for e in per_n] == list(range(lo, hi + 1)), "per_n does not cover the window")
    # the report carries the recovered splitting's geometry per index, not
    # its bases: the angle between the recovered stable and unstable
    # subspaces, and the projection norm 1/sin(angle), must equal the
    # planted ones everywhere on the trimmed window
    for e in per_n:
        _require(abs(e["min_angle"] - exp["angle"]) <= ANGLE_TOL,
                 f"n={e['n']}: splitting angle {e['min_angle']!r} vs planted {exp['angle']!r}")
        _require(abs(e["proj_norm"] - exp["p_s"]) <= ANGLE_TOL * exp["p_s"],
                 f"n={e['n']}: projection norm {e['proj_norm']!r} vs planted {exp['p_s']!r}")
    rows = _csv_rows(out_dir, "splitting_table", ("n", "gap", "min_angle", "proj_norm"))
    _require(len(rows) == len(per_n), f"splitting_table.csv has {len(rows)} rows, "
             f"want {len(per_n)}")
    for row, e in zip(rows, per_n):
        _require(int(row[0]) == e["n"] and float(row[2]) == e["min_angle"]
                 and float(row[3]) == e["proj_norm"], f"splitting_table.csv row n={row[0]} "
                 "differs from report.json")

    # planted closed form on every pair of the trimmed window:
    # ||A(m,n) P_n||      = |P_s| (mu_m/mu_n)^-lam_s nu_n/nu_m   (m >= n)
    # ||A(m,n)(I - P_n)|| = |P_u| (mu_n/mu_m)^-lam_u             (m <= n)
    # against D (mu_m/mu_n)^-lam nu_n and D (mu_n/mu_m)^-lam nu_n with
    # nu_n = max(1, mu_n^eps) from the reported (D, lam, eps)
    cert = res["certificate"]
    log_d, lam, eps = math.log(cert["D"]), cert["lambda"], cert["epsilon"]
    i0 = lo - w0
    lm = exp["lm"][i0: i0 + hi - lo + 1]
    ln_true = exp["ln"][i0: i0 + hi - lo + 1]
    ln_cert = np.maximum(0.0, eps * lm)
    gap = lm[:, None] - lm[None, :]              # [i_m, i_n] = lm_m - lm_n
    d_s, d_u = exp["dims"]
    worst = -math.inf
    if d_s:
        lhs = math.log(exp["p_s"]) - exp["lam_s"] * gap + ln_true[None, :] - ln_true[:, None]
        rhs = log_d - lam * gap + ln_cert[None, :]
        worst = max(worst, float(np.max((lhs - rhs)[gap >= 0])))
    if d_u:
        lhs = math.log(exp["p_u"]) + exp["lam_u"] * gap
        rhs = log_d + lam * gap + ln_cert[None, :]
        worst = max(worst, float(np.max((lhs - rhs)[gap <= 0])))
    _require(worst <= CERT_TOL, f"planted norms break the reported certificate "
             f"(log excess {worst:.3e})")


def _slack_rows(out_dir):
    """(m, n, side, slack) columns of slack_table.csv; side 0 stable, 1 unstable."""
    path = os.path.join(out_dir, "slack_table.csv")
    with open(path, encoding="utf-8") as fh:
        _require(fh.readline().rstrip("\n") == "m,n,side,slack", "slack_table.csv header differs")
    sides = {"stable": 0.0, "unstable": 1.0}
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                          converters={2: lambda s: sides[s]})
    except (KeyError, ValueError) as e:
        raise CheckError(f"slack_table.csv does not parse: {e}") from e
    return data.T


def check_verify(op, exp, rep, out_dir):
    res = rep["results"]["verify"]
    _require(rep["verdict"] == "pass" and res["passed"], "verdict is not pass")
    d_s, d_u = exp["dims"]
    p_s, p_u = exp["p_s"], exp["p_u"]
    d_true = max(1.0, p_s if d_s else 1.0, p_u if d_u else 1.0)
    _require(_close(res["D"], d_true, 1e-12), f"D {res['D']!r} is not the planted {d_true!r}")
    if op.cfg["system"]["rate"]["kind"] == "doubly_exponential":
        _require(res["max_slack_stable"] == 0.0,
                 f"worked example max stable slack {res['max_slack_stable']!r} is not 0.0")

    # closed form of every pair's slack (see check_characterize), with the
    # planted nu and the reported (D, lam)
    w0, w1 = exp["window"]
    a = w1 - w0 + 1
    m, n, side, v = _slack_rows(out_dir)
    i_m = (m - w0).astype(int)
    i_n = (n - w0).astype(int)
    stable = side == 0.0
    _require(np.all((0 <= i_m) & (i_m < a) & (0 <= i_n) & (i_n < a)), "row index outside window")
    _require(np.all(np.where(stable, i_m >= i_n, i_m <= i_n)), "row outside its triangle")
    _require(np.unique((side * a + i_m) * a + i_n).size == v.size, "duplicate rows")
    # a side without directions still emits its -inf diagonal
    tri = a * (a + 1) // 2
    count = {"stable": int(np.sum(stable)), "unstable": int(np.sum(~stable))}
    want = {"stable": tri, "unstable": tri if d_u else a}
    _require(count == want, f"slack_table.csv rows {count}, want {want}")

    lm, ln = exp["lm"], exp["ln"]
    lam, log_d = res["lam"], math.log(res["D"])
    ls = math.log(p_s) if d_s else -math.inf
    lu = math.log(p_u) if d_u else -math.inf
    ref = np.where(stable,
                   ls + (lam - exp["lam_s"]) * (lm[i_m] - lm[i_n]) - ln[i_m],
                   lu + (lam - exp["lam_u"]) * (lm[i_n] - lm[i_m]) - ln[i_n]) - log_d
    with np.errstate(invalid="ignore"):
        ok = np.where(np.isinf(ref), v == ref, np.abs(v - ref) <= SLACK_TOL)
    bad = np.flatnonzero(~ok)
    _require(bad.size == 0, "" if bad.size == 0 else
             f"{'stable' if stable[bad[0]] else 'unstable'} slack at "
             f"({int(m[bad[0]])},{int(n[bad[0]])}) is {float(v[bad[0]])!r}, "
             f"closed form {float(ref[bad[0]])!r}")


def _dense_solve(raw, projs, y, one_sided):
    """x_{i+1} - A_i x_i = y_{i+1}, P_0 x_0 = P_0 y_0, (I - P_W) x_W = 0."""
    w, d, _ = raw.shape
    size = (w + 1) * d
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    for i in range(w):
        r = i * d
        mat[r:r + d, (i + 1) * d:(i + 2) * d] = np.eye(d)
        mat[r:r + d, i * d:(i + 1) * d] = -raw[i]
        rhs[r:r + d] = y[i + 1]
    row = w * d
    for p, col, target in ((projs[0], 0, y[0]), (np.eye(d) - projs[-1], w * d, np.zeros(d))):
        u, s, _ = np.linalg.svd(p.T)
        basis = u[:, s > 0.5].T                  # orthonormal rows spanning row(P)
        mat[row:row + len(basis), col:col + d] = basis
        rhs[row:row + len(basis)] = basis @ target
        row += len(basis)
    _require(row == size, "boundary rows do not close the dense system")
    return np.linalg.solve(mat, rhs).reshape(w + 1, d)


def check_admissibility(op, exp, rep, out_dir):
    cfg = op.cfg
    _require(rep["verdict"] == "pass", "verdict is not pass")
    entries = rep["results"]["admissibility"]
    betas = cfg["beta"]
    _require([e["beta"] for e in entries] == [float(b) for b in betas], "betas differ")
    raw, projs = exp["raw"], exp["projs"]
    w, d, _ = raw.shape
    one_sided = cfg["system"]["rate"]["domain"] == "one_sided"
    lm, ln = exp["lm"], exp["ln"]
    for j, e in enumerate(entries):
        beta = e["beta"]
        rng = np.random.default_rng([int(cfg["seed"]), INPUT_STREAM, j])
        y = rng.standard_normal((w + 1, d))
        if one_sided:
            y[0] = 0.0
        x = np.array([s["values"] for s in e["report"]["solution"]], dtype=float)
        _require(x.shape == (w + 1, d), f"beta={beta}: solution shape {x.shape}")
        dense = _dense_solve(raw, projs, y, one_sided)
        scale = max(float(np.max(np.linalg.norm(dense, axis=1))), 1e-300)
        rel = float(np.max(np.linalg.norm(x - dense, axis=1))) / scale
        _require(rel <= DENSE_TOL, f"beta={beta}: dense solve differs by {rel:.3e}")
        resid = 0.0
        for i in range(w):
            r = x[i + 1] - raw[i] @ x[i] - y[i + 1]
            resid = max(resid, float(np.linalg.norm(r)))
        _require(resid <= RESIDUAL_TOL, f"beta={beta}: recurrence residual {resid:.3e}")
        # the reported ratio is the weighted sup-norm over the weighted 1-norm
        sup = float(np.max(np.exp(beta * lm) * np.linalg.norm(x, axis=1)))
        l1 = float(np.sum(np.exp(beta * lm + ln) * np.linalg.norm(y, axis=1)))
        bound = e["report"]["bound_constant"]
        _require(_close(bound, sup / l1, 1e-8),
                 f"beta={beta}: bound_constant {bound!r}, recomputed {sup / l1!r}")
        t = e["operator_norm"]
        top = t["exact_sup"] * (1.0 + ROUND_TOL)
        _require(bound <= top and t["sampled_lb"] <= top,
                 f"beta={beta}: ratio {bound!r} or sampled {t['sampled_lb']!r} above "
                 f"||T|| {t['exact_sup']!r}")
        if cfg["admissibility"].get("probe_uniqueness") and one_sided:
            _require("uniqueness" in e, f"beta={beta}: uniqueness probe missing")
    rows = _csv_rows(out_dir, "admissibility_table",
                     ("beta", "bound_constant", "exact_sup", "sampled_lb", "max_residual"))
    _require(len(rows) == len(entries), f"admissibility_table.csv has {len(rows)} rows, "
             f"want {len(entries)}")
    for row, e in zip(rows, entries):
        _require(float(row[0]) == e["beta"] and float(row[1]) == e["report"]["bound_constant"]
                 and float(row[2]) == e["operator_norm"]["exact_sup"],
                 f"admissibility_table.csv row beta={row[0]} differs from report.json")


def _gamma_sum(cfg):
    w0, w1 = cfg["system"]["rate"]["window"]
    ratio = cfg.get("perturb", {}).get("gamma_ratio", GAMMA_RATIO)
    return float(np.sum(ratio ** np.arange(w1 - w0, dtype=float)))


def _margin_factor(margin, c, gsum):
    cs = c * gsum
    return margin / (cs * (1.0 + cs))


def check_persistence(op, exp, rep, out_dir):
    cfg = op.cfg
    _require(rep["verdict"] == "pass", "verdict is not pass")
    gsum = _gamma_sum(cfg)
    if cfg["scenario"] == "perturb":
        p = rep["results"]["persistence"]
        _require(_close(p["gamma_sum"], gsum, 1e-12), f"gamma_sum {p['gamma_sum']!r}")
        _require(p["margin"] >= 1.0 or p["verdict"] == "persisted",
                 f"margin {p['margin']!r} < 1 but verdict {p['verdict']!r}")
        _require(_margin_factor(p["margin"], p["c"], gsum) > 0.0, "margin factor is not positive")
        return
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    rows = rep["results"]["sweep"]["rows"]
    _require([r[axis] for r in rows] == values, f"sweep values differ: {[r[axis] for r in rows]}")
    factors = []
    for r in rows:
        _require(r["status"] == "ok", f"{axis}={r[axis]}: status {r['status']!r}")
        _require(r["margin"] >= 1.0 or r["verdict"] == "persisted",
                 f"{axis}={r[axis]}: margin {r['margin']!r} < 1 but {r['verdict']!r}")
        c = r[axis] if axis == "c" else cfg.get("perturb", {}).get("c", 0.1)
        factors.append(_margin_factor(r["margin"], c, gsum))
    # margin = c S ||T|| (1 + c S) with ||T|| of the unperturbed base, which
    # neither the amplitude nor the direction seed can change
    _require(max(factors) - min(factors) <= MARGIN_RATIO_TOL * max(factors),
             f"margin / (c S (1 + c S)) varies over the sweep: {factors}")
    table = _csv_rows(out_dir, "sweep_table", ("index", axis, "margin", "verdict",
                                               "max_drift", "status"))
    _require(len(table) == len(rows), f"sweep_table.csv has {len(table)} rows, want {len(rows)}")
    for t, r in zip(table, rows):
        _require(float(t[2]) == r["margin"] and t[3] == r["verdict"],
                 f"sweep_table.csv row {t[0]} differs from report.json")


CHECKS = {
    "characterize": check_characterize,
    "verify": check_verify,
    "admissibility": check_admissibility,
    "sweep": check_persistence,
    "perturb": check_persistence,
}


def check(op, exp, out_dir, rc):
    """Raise CheckError unless the operation's outputs are correct."""
    rep = _report(out_dir)
    if op.expect_failure:
        # once the known fault is mended the op must still keep the contract
        _require(rc in (0, 2), f"exit code {rc}")
        return
    _require(rc == 0, f"exit code {rc}")
    CHECKS[op.cfg["scenario"]](op, exp, rep, out_dir)
