"""Release gate: every acceptance criterion, one recorded verdict line each.

Each test assembles its own evidence, records a single "criterion N:
PASS/FAIL" line (printed in the terminal summary), then asserts.  Shared
case banks are built lazily and reused across criteria so the solver work
is timed once under the budget that owns it.
"""

import copy
import math
import os
import time

import numpy as np

from dicholab import (
    LinearSystem,
    PerturbationSpec,
    ProjectionFamily,
    beta_range,
    characterize,
    compute_n0,
    fit_certificate,
    geometric_gamma,
    make_abs_spec,
    make_nu,
    make_perturbation,
    make_rate,
    norm,
    one_sided_boundary,
    operator_norm_T,
    oracle_solve,
    run_counterexample,
    s_beta_zero_check,
    solve_admissibility,
    spectral_norm,
    two_sided_boundary,
    verify_dichotomy,
    verify_persistence,
)
from dicholab.cli import run as cli_run

import helpers
from helpers import planted, random_input, subspace_gap


def _verdict(ok, num, detail):
    helpers.record(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ----------------------------------------------------- criterion 1: example


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    rate = make_rate("doubly_exponential", "one_sided", (0, 20))
    nu = make_nu("uniform", rate)
    dl = np.diff(rate.log_values)
    sys = LinearSystem.from_scaled(-0.5 * dl, np.ones((20, 1, 1)),
                                   "one_sided", (0, 20))
    proj = ProjectionFamily(window=(0, 20), projections=np.ones((21, 1, 1)),
                            stable_rank=1)
    rep = verify_dichotomy(sys, proj, rate, nu, 1.0, 0.5)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.max_slack_stable <= 1e-12 and dt < 1.0
    assert _verdict(ok, 1, f"max log slack {rep.max_slack_stable:.3g}, {dt:.3f}s")
    assert rep.max_slack_stable <= 1e-12
    assert dt < 1.0


# ----------------------------------------- criterion 2: divergent admissibility


def test_criterion_02_counterexample_divergence():
    t0 = time.perf_counter()
    rows = run_counterexample(10)
    dt = time.perf_counter() - t0
    margin = min(x - b for _, x, b in rows)
    by3 = [b for n, _, b in rows if n == 3][0]
    ok = margin >= -1e-9 and by3 > math.log(1e6) and dt < 0.1
    assert _verdict(ok, 2, f"min log margin {margin:.3g}, "
                           f"bound at n=3 exp({by3:.2f}), {dt:.3f}s")
    assert margin >= -1e-9
    assert by3 > math.log(1e6)
    assert dt < 0.1


# ------------------------------------------- criteria 3/4: solver vs oracle


RATE_GRID = [
    ("one_sided", "exponential", [(0, 60), (0, 200)]),
    ("one_sided", "polynomial", [(0, 80), (0, 160)]),
    ("one_sided", "logarithmic", [(0, 100), (0, 200)]),
    ("two_sided", "exponential", [(-30, 30), (-100, 100)]),
    ("two_sided", "polynomial", [(-40, 40), (-80, 80)]),
]
DIM_GRID = [(1, 0), (1, 1), (2, 1), (2, 2), (3, 3)]
LAM_GRID = [(1.0, 1.0), (0.6, 1.4), (1.2, 0.8)]
BETA_FRACTIONS = (0.125, 0.375, 0.625, 0.875)

_BANK: dict = {}


def _solved_bank():
    """Builds and solves the criterion-3 case grid once; later criteria reuse it."""
    if _BANK:
        return _BANK
    t0 = time.perf_counter()
    configs = []
    sid = 0
    for domain, kind, windows in RATE_GRID:
        for window in windows:
            for dims in DIM_GRID:
                lam_s, lam_u = LAM_GRID[sid % len(LAM_GRID)]
                cond = (1.0, 5.0)[sid % 2]
                eps = 0.1 if (kind == "exponential" and sid % 4 == 0) else 0.0
                configs.append((domain, kind, window, dims, lam_s, lam_u,
                                cond, eps, sid))
                sid += 1
    for window in [(0, 60), (0, 200)]:
        configs.append(("one_sided", "exponential", window, (4, 2),
                        1.0, 1.0, 5.0, 0.0, sid))
        sid += 1

    entries = []
    worst_rel = 0.0
    worst_res = 0.0
    n_cases = 0
    for domain, kind, window, dims, lam_s, lam_u, cond, eps, seed in configs:
        model, rate, nu = planted(
            window, lam_s, lam_u, dims, cond=cond, seed=seed, domain=domain,
            rate_kind=kind, nu_kind="power" if eps else "uniform", epsilon=eps)
        sys, proj = model.system, model.projections
        boundary = (one_sided_boundary(proj) if domain == "one_sided"
                    else two_sided_boundary())
        y = random_input(sys, seed=1000 + seed)
        lo, hi = beta_range(model.certificate, domain)
        betas = [lo + f * (hi - lo) for f in BETA_FRACTIONS]
        reports = []
        for beta in betas:
            rep = solve_admissibility(sys, proj, y, beta, rate, nu, boundary)
            ora = oracle_solve(sys, proj, y, boundary, reference=rep.solution)
            scale = float(np.max(np.linalg.norm(ora, axis=1)))
            rel = float(np.max(np.linalg.norm(rep.solution - ora, axis=1)))
            rel = rel / scale if scale > 0 else rel
            worst_rel = max(worst_rel, rel)
            worst_res = max(worst_res, rep.max_residual)
            reports.append(rep)
            n_cases += 1
        entries.append({"model": model, "rate": rate, "nu": nu,
                        "domain": domain, "seed": seed, "betas": betas,
                        "reports": reports})
    _BANK.update(entries=entries, worst_rel=worst_rel, worst_res=worst_res,
                 n_cases=n_cases, solve_time=time.perf_counter() - t0)
    return _BANK


def test_criterion_03_solver_matches_oracle():
    bank = _solved_bank()
    ok = (bank["n_cases"] >= 200 and bank["worst_rel"] <= 1e-8
          and bank["worst_res"] <= 1e-10 and bank["solve_time"] < 30.0)
    assert _verdict(ok, 3, f"{bank['n_cases']} cases, worst oracle rel "
                           f"{bank['worst_rel']:.2e}, worst residual "
                           f"{bank['worst_res']:.2e}, {bank['solve_time']:.1f}s")
    assert bank["n_cases"] >= 200
    assert bank["worst_rel"] <= 1e-8
    assert bank["worst_res"] <= 1e-10
    assert bank["solve_time"] < 30.0


def test_criterion_04_norm_bound_from_certificate():
    bank = _solved_bank()
    worst = 0.0
    for entry in bank["entries"]:
        model = entry["model"]
        cert = fit_certificate(model.system, model.projections,
                               entry["rate"], entry["nu"])
        for rep in entry["reports"]:
            bound = cert.D * rep.input_norm_1beta
            worst = max(worst, rep.solution_norm_infbeta / bound)
    ok = worst <= 1.0 + 1e-6
    assert _verdict(ok, 4, f"worst output/bound ratio {worst:.12f} "
                           f"over {bank['n_cases']} cases")
    assert worst <= 1.0 + 1e-6


# ------------------------------------------ criterion 5: certificate recovery


_RECOVERED: list = []


def _recovered_cases():
    """Characterize runs shared between criteria 5 and 6."""
    if _RECOVERED:
        return _RECOVERED
    for i, (domain, kind) in enumerate([
            ("one_sided", "exponential"), ("one_sided", "polynomial"),
            ("one_sided", "logarithmic"), ("two_sided", "exponential"),
            ("two_sided", "polynomial")]):
        windows = {"one_sided": {"exponential": (0, 60), "polynomial": (0, 120),
                                 "logarithmic": (0, 160)},
                   "two_sided": {"exponential": (-30, 30),
                                 "polynomial": (-50, 50)}}
        for j, dims in enumerate([(1, 1), (2, 2)]):
            lam_s, lam_u = [(1.0, 1.0), (0.7, 1.3)][j]
            model, rate, nu = planted(
                windows[domain][kind], lam_s, lam_u, dims, cond=1.0,
                seed=40 + 2 * i + j, domain=domain, rate_kind=kind)
            res = characterize(model.system, rate, nu)
            _RECOVERED.append({"half": "exact", "model": model, "rate": rate,
                               "nu": nu, "res": res,
                               "lam_true": min(lam_s, lam_u)})
    for i, domain in enumerate(["one_sided", "two_sided"]):
        for cond in (3.0, 10.0):
            for j, dims in enumerate([(1, 1), (2, 2)]):
                lam_s, lam_u = [(1.0, 1.0), (0.8, 1.2)][j]
                window = (0, 60) if domain == "one_sided" else (-30, 30)
                model, rate, nu = planted(
                    window, lam_s, lam_u, dims, cond=cond,
                    seed=60 + 8 * i + j, domain=domain)
                hint = (model.projections.kernel_basis(window[0])
                        if domain == "one_sided" else None)
                res = characterize(model.system, rate, nu, boundary_hint=hint)
                _RECOVERED.append({"half": "conditioned", "model": model,
                                   "rate": rate, "nu": nu, "res": res,
                                   "lam_true": min(lam_s, lam_u)})
    return _RECOVERED


def _projection_angle(model, res):
    """Worst principal angle of recovered range and kernel against planted."""
    fam, ref = res.projections, model.projections
    lo, hi = fam.window
    eye = np.eye(model.system.dim)
    worst = 0.0
    for n in range(lo, hi + 1):
        a = fam.projections[n - lo]
        b = ref.projections[n - ref.window[0]]
        worst = max(worst, subspace_gap(a, b), subspace_gap(eye - a, eye - b))
    return worst


def test_criterion_05_certificate_recovery():
    cases = _recovered_cases()
    worst_lam_exact = max(abs(c["res"].certificate.lam - c["lam_true"])
                          for c in cases if c["half"] == "exact")
    worst_d_exact = max(c["res"].certificate.D for c in cases
                        if c["half"] == "exact")
    worst_angle = max(_projection_angle(c["model"], c["res"])
                      for c in cases if c["half"] == "conditioned")
    worst_lam_cond = max(abs(c["res"].certificate.lam - c["lam_true"])
                         for c in cases if c["half"] == "conditioned")
    ok = (worst_lam_exact <= 1e-6 and worst_d_exact <= 1.0 + 1e-8
          and worst_angle <= 1e-6 and worst_lam_cond <= 1e-3)
    assert _verdict(ok, 5, f"aligned: lam err {worst_lam_exact:.2e}, "
                           f"D {worst_d_exact:.10f}; conditioned: angle "
                           f"{worst_angle:.2e}, lam err {worst_lam_cond:.2e}")
    assert worst_lam_exact <= 1e-6
    assert worst_d_exact <= 1.0 + 1e-8
    assert worst_angle <= 1e-6
    assert worst_lam_cond <= 1e-3


# ------------------------------------- criterion 6: projection/Green bounds


def test_criterion_06_projection_and_green_bounds():
    worst_pn = 0.0
    worst_green = 0.0
    for case in _recovered_cases():
        res, nu = case["res"], case["nu"]
        d_hat = res.certificate.D
        lo, hi = res.projections.window
        for i, n in enumerate(range(lo, hi + 1)):
            bound = d_hat * math.exp(nu.log_at(n))
            worst_pn = max(worst_pn, res.splitting.proj_norms[i] / bound)
        assert math.isfinite(res.splitting.green_bound_sup)
        worst_green = max(worst_green, res.splitting.green_bound_sup)

    bank = _solved_bank()
    worst_gap = -math.inf
    for entry in bank["entries"]:
        model = entry["model"]
        beta = entry["betas"][1]
        t = operator_norm_T(model.system, model.projections, entry["rate"],
                            entry["nu"], beta, n_samples=4,
                            seed=entry["seed"])
        assert math.isfinite(t["exact_sup"])
        worst_gap = max(worst_gap, t["sampled_lb"] - t["exact_sup"])
    ok = worst_pn <= 1.0 and worst_gap <= 1e-8
    assert _verdict(ok, 6, f"worst proj/bound ratio {worst_pn:.12f}, Green sup "
                           f"max {worst_green:.3g}, sampled minus exact "
                           f"{worst_gap:.2e}")
    assert worst_pn <= 1.0
    assert worst_gap <= 1e-8


# ------------------------------------------- criterion 7: persistence grid


def test_criterion_07_persistence_grid():
    t0 = time.perf_counter()
    window = (0, 40)
    persisted = 0
    total = 0
    worst_sat = 0.0
    for dims in [(1, 1), (2, 2)]:
        for seed in range(5):
            for k, c in enumerate((0.01, 0.05, 0.2)):
                model, rate, nu = planted(window, 1.0, 1.0, dims, cond=3.0,
                                          seed=seed)
                spec = PerturbationSpec(gamma=geometric_gamma(window, 0.5),
                                        c=c, seed=100 + seed,
                                        beta=0.1 if k % 2 else 0.0)
                b = make_perturbation(model.system, rate, nu, spec)
                for i, n in enumerate(range(window[0], window[1])):
                    target = (c * 0.5 ** i
                              * math.exp(spec.beta * rate.log_at(n)
                                         - nu.log_at(n + 1)
                                         - spec.beta * rate.log_at(n + 1)))
                    worst_sat = max(worst_sat, abs(spectral_norm(b[i]) - target)
                                    / target)
                hint = model.projections.kernel_basis(0)
                rep = verify_persistence(model.system, b, rate, nu, spec=spec,
                                         boundary_hint=hint)
                total += 1
                assert rep.margin < 1.0, (dims, seed, c, rep.margin)
                if rep.verdict == "persisted":
                    persisted += 1
    dt = time.perf_counter() - t0
    ok = total >= 30 and persisted == total and worst_sat <= 1e-12 and dt < 60.0
    assert _verdict(ok, 7, f"{persisted}/{total} persisted, saturation err "
                           f"{worst_sat:.2e}, {dt:.1f}s")
    assert total >= 30
    assert persisted == total
    assert worst_sat <= 1e-12
    assert dt < 60.0


# --------------------------------------- criterion 8: two-sided abs norms


def test_criterion_08_two_sided_abs_bound():
    worst = 0.0
    for dims, cond, seed in [((1, 1), 2.0, 11), ((2, 2), 5.0, 12)]:
        model, rate, nu = planted((-25, 25), 1.0, 1.0, dims, cond=cond,
                                  seed=seed, domain="two_sided")
        sys, proj = model.system, model.projections
        cert = fit_certificate(sys, proj, rate, nu)
        n0 = compute_n0(rate)
        for beta in (0.4, -0.4):
            y = random_input(sys, seed=200 + seed)
            rep = solve_admissibility(sys, proj, y, beta, rate, nu,
                                      two_sided_boundary(), variant="abs")
            y_norm = norm(y, make_abs_spec(rate, beta, p=1), rate, nu)
            bound = cert.D * y_norm
            b = abs(beta)
            for i, n in enumerate(range(-25, 26)):
                lm = rate.log_at(n)
                w = math.exp(b * lm) if n < n0 else math.exp(-b * lm)
                worst = max(worst, w * float(np.linalg.norm(rep.solution[i]))
                            / bound)
    ok = worst <= 1.0 + 1e-6
    assert _verdict(ok, 8, f"worst weighted value/bound ratio {worst:.12f}")
    assert worst <= 1.0 + 1e-6


# ------------------------------------- criterion 9: weighted initial subspace


def test_criterion_09_weighted_subspace_agreement():
    model, rate, _ = planted((0, 30), 1.0, 1.0, (2, 1), seed=3)
    same = s_beta_zero_check(model.system, rate, 0.5)

    mats = np.stack([np.diag([math.exp(-1.0), math.exp(-0.25),
                              math.exp(1.0)])] * 30)
    sys2 = LinearSystem.from_matrices(mats, "one_sided", (0, 30))
    rate2 = make_rate("exponential", "one_sided", (0, 30))
    split = s_beta_zero_check(sys2, rate2, 0.5)

    ok = same.equal and not split.equal
    assert _verdict(ok, 9, f"clean rates equal={same.equal}; slow direction "
                           f"equal={split.equal} (dims {split.basis_s0.dim} "
                           f"vs {split.basis_sbeta.dim})")
    assert same.equal
    assert not split.equal
    assert (split.basis_s0.dim, split.basis_sbeta.dim) == (2, 1)


# --------------------------------------------- criterion 10: determinism


def _battery():
    def planted_block(window, dims, cond, kind="exponential"):
        return {"source": "planted",
                "rate": {"kind": kind, "domain": "one_sided",
                         "window": list(window)},
                "lambda_stable": 1.0, "lambda_unstable": 1.0,
                "dims": list(dims), "cond": cond}

    worked = planted_block((0, 20), (1, 0), 1.0, kind="doubly_exponential")
    worked.update(lambda_stable=0.5, lambda_unstable=0.5)
    return {
        "verify": {"scenario": "verify", "seed": 0, "system": worked},
        "characterize": {"scenario": "characterize", "seed": 3,
                         "system": planted_block((0, 40), (1, 1), 2.0)},
        "admissibility": {"scenario": "admissibility", "seed": 5,
                          "system": planted_block((0, 40), (2, 1), 3.0),
                          "beta": [0.25, -0.25],
                          "admissibility": {"probe_uniqueness": True,
                                            "n_samples": 4}},
        "perturb": {"scenario": "perturb", "seed": 1,
                    "system": planted_block((0, 30), (1, 1), 3.0),
                    "perturb": {"c": 0.05, "pert_seed": 7}},
        "counterexample": {"scenario": "counterexample",
                           "counterexample": {"n_max": 10}},
        "sweep": {"scenario": "sweep", "seed": 2,
                  "system": planted_block((0, 30), (1, 1), 3.0),
                  "perturb": {"c": 0.1},
                  "sweep": {"axis": "c", "values": [0.01, 0.05, 0.2]}},
    }


def test_criterion_10_determinism(tmp_path):
    compared = 0
    for name, cfg in _battery().items():
        dirs = []
        for tag, threads in [("a", 1), ("b", 1), ("c", 4), ("d", 7)]:
            out = str(tmp_path / name / tag)
            rc = cli_run(copy.deepcopy(cfg), out_dir=out, threads=threads)
            assert rc == 0, (name, tag)
            dirs.append(out)
        files = sorted(f for f in os.listdir(dirs[0]) if f != "run_meta.json")
        assert files, name
        for f in files:
            with open(os.path.join(dirs[0], f), "rb") as fh:
                want = fh.read()
            for d in dirs[1:]:
                with open(os.path.join(d, f), "rb") as fh:
                    assert fh.read() == want, (name, f, d)
                compared += 1
    ok = compared > 0
    assert _verdict(ok, 10, f"{compared} file comparisons across reruns and "
                            f"thread counts 1/4/7, all byte-identical")
    assert ok
