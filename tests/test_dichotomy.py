"""Certificate checking and fitting for two-sided decay estimates.

Expected slacks and suprema are recomputed here with raw loops over the
unscaled evolution products wherever the window permits, so the grid code
in the package is never its own oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dicholab.dichotomy as dichotomy
from dicholab import (
    ConfigError,
    DichotomyCertificate,
    FitError,
    LinearSystem,
    PerturbationSpec,
    ProjectionFamily,
    beta_range,
    characterize,
    check_munu,
    evolution,
    fit_certificate,
    geometric_gamma,
    make_nu,
    make_perturbation,
    make_rate,
    perturbed_system,
    spectral_norm,
    verify_dichotomy,
)
from dicholab.dichotomy import stable_slack_grid, unstable_slack_grid

from helpers import planted


def identity_projections(window, dim, stable_rank):
    w = window[1] - window[0]
    p = np.zeros((w + 1, dim, dim))
    for i in range(stable_rank):
        p[:, i, i] = 1.0
    return ProjectionFamily(window=window, projections=p, stable_rank=stable_rank)


# ---------------------------------------------------------------- verification


def test_worked_scalar_example_has_zero_slack():
    # stable scalar contracting at exactly half the doubly exponential rate:
    # the certificate D=1, lambda=1/2 is tight and every grid entry cancels
    model, rate, nu = planted((0, 20), 0.5, 1.0, (1, 0),
                              rate_kind="doubly_exponential")
    proj = identity_projections((0, 20), 1, 1)
    report = verify_dichotomy(model.system, proj, rate, nu, 1.0, 0.5)
    assert report.passed
    assert report.max_slack_stable == 0.0
    # no unstable directions, so that grid is empty
    assert report.max_slack_unstable == float("-inf")
    assert report.max_commuting <= 1e-15


def test_identity_system_fails_with_predictable_slack():
    # A_n = I decays not at all; the best log-slack against D=1, lambda=1/2
    # on an exponential window [0, 8] is lambda * (mu-gap) = 0.5 * 8
    rate = make_rate("exponential", "one_sided", (0, 8))
    nu = make_nu("uniform", rate)
    sys = LinearSystem.from_matrices(np.stack([np.eye(2)] * 8), "one_sided", (0, 8))
    proj = identity_projections((0, 8), 2, 1)
    report = verify_dichotomy(sys, proj, rate, nu, 1.0, 0.5)
    assert not report.passed
    assert report.max_slack_stable == pytest.approx(4.0, abs=1e-9)
    assert any("stable" in r for r in report.failure_reasons)


def test_slack_grids_match_raw_products():
    model, rate, nu = planted((0, 12), 0.8, 1.2, (2, 1), cond=4.0, seed=6)
    sys, proj = model.system, model.projections
    d, lam = model.certificate.D, model.certificate.lam
    report = verify_dichotomy(sys, proj, rate, nu, d, lam)
    assert report.passed
    # recompute a handful of stable entries the slow way
    for m, n in ((3, 0), (7, 2), (12, 5)):
        prod = evolution(sys, m, n) @ proj.matrix_at(n)
        lhs = math.log(spectral_norm(prod))
        rhs = (math.log(d) + nu.log_at(n)
               - lam * (rate.log_at(m) - rate.log_at(n)))
        want = lhs - rhs
        got = report.slack_stable[m][n]
        assert got == pytest.approx(want, abs=1e-8)


def test_verify_reports_commuting_defect():
    model, rate, nu = planted((0, 6), 1.0, 1.0, (1, 1))
    proj_mats = np.stack([model.projections.matrix_at(n) for n in range(7)])
    proj_mats[3] = np.diag([0.0, 1.0])  # break invariance at one index
    proj = ProjectionFamily(window=(0, 6), projections=proj_mats, stable_rank=1)
    report = verify_dichotomy(model.system, proj, rate, nu, 1.0, 1.0)
    assert not report.passed
    assert report.max_commuting > 1e-3
    assert any("invariance" in r or "commut" in r for r in report.failure_reasons)


def test_verify_to_json_and_rows():
    model, rate, nu = planted((0, 5), 1.0, 1.0, (1, 1))
    report = verify_dichotomy(model.system, model.projections, rate, nu, 1.0, 1.0)
    doc = report.to_json()
    assert doc["passed"] is True
    assert doc["window"] == [0, 5]
    m, n, side, slack = report.slack_columns()
    # stable pairs m >= n and unstable pairs m <= n: two triangles of 6 * 7 / 2
    assert m.size == n.size == side.size == slack.size == 2 * 21
    assert list(side) == ["stable"] * 21 + ["unstable"] * 21
    for block in (slice(0, 21), slice(21, 42)):
        pairs = list(zip(m[block].tolist(), n[block].tolist()))
        assert pairs == sorted(pairs) and len(set(pairs)) == 21
    assert all(mm >= nn for mm, nn in zip(m[:21], n[:21]))
    assert all(mm <= nn for mm, nn in zip(m[21:], n[21:]))
    np.testing.assert_array_equal(slack[:21], report.slack_stable[m[:21], n[:21]])
    np.testing.assert_array_equal(slack[21:], report.slack_unstable[m[21:], n[21:]])


# --------------------------------------------------------------------- fitting


def test_fit_on_exact_exponential_block():
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1))
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert cert.lam == pytest.approx(1.0, abs=1e-6)
    assert cert.D <= 1.0 + 1e-8
    assert cert.eps == pytest.approx(0.0, abs=1e-6)


def test_fit_scalar_half_rate():
    model, rate, nu = planted((0, 30), 0.5, 1.0, (1, 0))
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert cert.lam == pytest.approx(0.5, abs=1e-6)
    assert cert.D == pytest.approx(1.0, abs=1e-8)


def test_fit_recovers_nu_exponent():
    rate = make_rate("exponential", "one_sided", (0, 60))
    nu = make_nu("power", rate, epsilon=0.1)
    model = make_planted_model_with(rate, nu, seed=7)
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert cert.eps == pytest.approx(0.1, abs=1e-3)


def make_planted_model_with(rate, nu, seed):
    from dicholab import make_planted_model

    return make_planted_model(rate, nu, 1.0, 1.0, (1, 1), cond=5.0, seed=seed)


def test_fit_then_verify_is_consistent():
    model, rate, nu = planted((0, 25), 0.7, 1.4, (2, 2), cond=9.0, seed=13)
    cert = fit_certificate(model.system, model.projections, rate, nu)
    report = verify_dichotomy(model.system, model.projections, rate, nu,
                              cert.D, cert.lam)
    assert report.passed
    assert report.max_slack_stable <= 1e-8
    assert report.max_slack_unstable <= 1e-8


def test_fit_nu_scale_covariance():
    # replacing nu by c*nu divides the envelope constant by c (down to the
    # D >= 1 floor) and leaves the fitted rate untouched
    model, rate, _ = planted((0, 30), 1.0, 1.0, (2, 1), cond=3.0, seed=21)
    nu1 = make_nu("uniform", rate, c=1.0)
    nu3 = make_nu("uniform", rate, c=3.0)
    c1 = fit_certificate(model.system, model.projections, rate, nu1)
    c3 = fit_certificate(model.system, model.projections, rate, nu3)
    assert c3.lam == pytest.approx(c1.lam, rel=1e-8)
    want = max(c1.D / 3.0, 1.0 + 1e-12)
    assert c3.D == pytest.approx(want, rel=1e-8)


def test_fit_structural_residuals_small_for_moderate_cond():
    for cond in (1.0, 10.0, 100.0):
        model, rate, nu = planted((0, 20), 1.0, 1.0, (2, 2), cond=cond, seed=17)
        report = verify_dichotomy(model.system, model.projections, rate, nu,
                                  model.certificate.D * (1 + 1e-9),
                                  model.certificate.lam)
        assert report.max_commuting <= 1e-10 * max(1.0, cond)
        assert report.min_kernel_rel >= 1e-10


def test_fit_rejects_non_decaying_stable_part():
    rate = make_rate("exponential", "one_sided", (0, 10))
    nu = make_nu("uniform", rate)
    sys = LinearSystem.from_matrices(np.stack([np.eye(1)] * 10), "one_sided",
                                     (0, 10))
    proj = identity_projections((0, 10), 1, 1)
    with pytest.raises(FitError):
        fit_certificate(sys, proj, rate, nu)


# ------------------------------------------------------------------ check_munu


def test_check_munu_uniform_nu_is_one():
    rate = make_rate("exponential", "one_sided", (0, 50))
    nu = make_nu("uniform", rate)
    out = check_munu(rate, nu, 0.0)
    assert out["finite"]
    assert out["sup_value"] == pytest.approx(1.0)
    assert "left_sup_value" not in out


def test_check_munu_matched_power_is_one():
    rate = make_rate("exponential", "one_sided", (0, 50))
    nu = make_nu("power", rate, epsilon=0.1)
    out = check_munu(rate, nu, 0.1)
    assert out["sup_value"] == pytest.approx(1.0, rel=1e-12)


def test_check_munu_excess_growth_detected():
    rate = make_rate("exponential", "one_sided", (0, 100))
    nu = make_nu("power", rate, epsilon=0.2)
    got = check_munu(rate, nu, 0.1)["sup_value"]
    # sup of exp(0.2 n - 0.1 n) over the window sits at the right end
    assert got == pytest.approx(math.exp(10.0), rel=1e-10)
    # brute force over the grid agrees
    brute = max(math.exp(nu.log_at(n) - 0.1 * rate.log_at(n))
                for n in range(0, 101))
    assert got == pytest.approx(brute, rel=1e-12)


def test_check_munu_two_sided_left_tail():
    # on the left half the weight is mu_n^eps * nu_n with mu increasing, so
    # for constant nu the supremum over n <= 0 sits at n = 0 and equals 1
    rate = make_rate("exponential", "two_sided", (-40, 40))
    nu = make_nu("uniform", rate)
    out = check_munu(rate, nu, 0.1)
    brute_left = max(math.exp(0.1 * rate.log_at(n)) for n in range(-40, 1))
    assert out["left_sup_value"] == pytest.approx(brute_left, rel=1e-12)
    assert out["left_sup_value"] == pytest.approx(1.0)
    assert out["sup_value"] == pytest.approx(1.0)
    assert out["finite"]


# ------------------------------------------------------------------ beta_range


def test_beta_range_one_sided_half_rate():
    cert = DichotomyCertificate(D=1.0, lam=0.5, eps=0.0)
    lo, hi = beta_range(cert, "one_sided")
    assert (lo, hi) == pytest.approx((-0.5, 0.5))


def test_beta_range_two_sided_with_nu_growth():
    cert = DichotomyCertificate(D=2.0, lam=1.0, eps=0.2)
    lo, hi = beta_range(cert, "two_sided")
    assert (lo, hi) == pytest.approx((-0.8, 0.8))


def test_beta_range_one_sided_asymmetric():
    cert = DichotomyCertificate(D=2.0, lam=1.0, eps=0.2)
    lo, hi = beta_range(cert, "one_sided")
    assert (lo, hi) == pytest.approx((-0.8, 1.0))


def test_beta_range_empty_raises():
    cert = DichotomyCertificate(D=1.0, lam=0.1, eps=0.5)
    with pytest.raises(FitError):
        beta_range(cert, "two_sided")
    with pytest.raises(ConfigError):
        beta_range(DichotomyCertificate(D=1.0, lam=1.0), "diagonal")


# ------------------------------------------------------------------ validation


def test_projection_family_requires_idempotence():
    p = np.stack([np.full((2, 2), 0.5)] * 3)
    p[1] = np.array([[0.9, 0.0], [0.0, 0.0]])  # not a projection
    with pytest.raises(ConfigError):
        ProjectionFamily(window=(0, 2), projections=p, stable_rank=1)


def test_projection_family_requires_constant_rank():
    p = np.zeros((3, 2, 2))
    p[0] = np.diag([1.0, 0.0])
    p[1] = np.eye(2)
    p[2] = np.diag([1.0, 0.0])
    with pytest.raises(ConfigError):
        ProjectionFamily(window=(0, 2), projections=p, stable_rank=1)


def test_certificate_parameter_validation():
    with pytest.raises(ConfigError):
        DichotomyCertificate(D=0.5, lam=1.0)
    with pytest.raises(ConfigError):
        DichotomyCertificate(D=1.0, lam=0.0)
    with pytest.raises(ConfigError):
        DichotomyCertificate(D=1.0, lam=1.0, eps=-0.1)
    model, rate, nu = planted((0, 5), 1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        verify_dichotomy(model.system, model.projections, rate, nu, -1.0, 1.0)
    with pytest.raises(ConfigError):
        verify_dichotomy(model.system, model.projections, rate, nu, 1.0,
                         float("inf"))


# ------------------------------------------------------------ decay-sweep kernel


def fresh_family(proj):
    """Same projections in a new family object, so nothing is shared."""
    return ProjectionFamily(window=proj.window, projections=proj.projections.copy(),
                            stable_rank=proj.stable_rank)


def sweep_case(name):
    if name == "worked":
        model, rate, nu = planted((0, 20), 0.5, 1.0, (1, 0),
                                  rate_kind="doubly_exponential")
        return model.system, identity_projections((0, 20), 1, 1), rate, nu
    if name == "polynomial_two_sided":
        model, rate, nu = planted((-15, 15), 1.2, 0.9, (2, 1), cond=3.0, seed=5,
                                  domain="two_sided", rate_kind="polynomial")
        return model.system, model.projections, rate, nu
    # diag(1/2, 2) steps except step 4, which kills the complementary
    # direction: the backward march stops there
    mats = np.stack([np.diag([0.5, 2.0])] * 8)
    mats[4] = np.diag([0.5, 0.0])
    rate = make_rate("exponential", "one_sided", (0, 8))
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 8))
    return sys, identity_projections((0, 8), 2, 1), rate, make_nu("uniform", rate)


@pytest.mark.parametrize("name", ["worked", "polynomial_two_sided", "singular_step"])
def test_grids_folded_from_one_march_equal_fresh_marches(name):
    sys, proj, rate, nu = sweep_case(name)
    for lam in (0.0, 0.5, -0.3, 1.25, 0.5):
        other = fresh_family(proj)
        got_s = stable_slack_grid(sys, proj, rate, nu, lam)
        got_u, rel, singular = unstable_slack_grid(sys, proj, rate, nu, lam)
        want_u, want_rel, want_singular = unstable_slack_grid(sys, other, rate, nu, lam)
        assert np.array_equal(got_s, stable_slack_grid(sys, other, rate, nu, lam),
                              equal_nan=True)
        assert np.array_equal(got_u, want_u, equal_nan=True)
        assert np.array_equal(rel, want_rel, equal_nan=True)
        assert singular == want_singular
    if name == "worked":
        assert np.nanmax(stable_slack_grid(sys, proj, rate, nu, 0.5)) == 0.0
    if name == "singular_step":
        assert singular == (4,)
        # the march stopped at step 4, the sigmas below it are still measured
        assert rel[4] == 0.0 and np.all(rel[:4] == 1.0)
        assert np.all(np.isnan(got_u[:5, 5:]))
        assert np.all(np.isfinite(got_u[5, 6:]))


def test_family_follows_the_system_object():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (1, 1), cond=2.0, seed=3)
    sys, proj = model.system, model.projections
    spec = PerturbationSpec(gamma=geometric_gamma(sys.window), c=0.3, seed=5)
    sys_p = perturbed_system(sys, make_perturbation(sys, rate, nu, spec))
    base_s = stable_slack_grid(sys, proj, rate, nu, 0.5)
    base_u = unstable_slack_grid(sys, proj, rate, nu, 0.5)[0]
    other = fresh_family(proj)
    got_s = stable_slack_grid(sys_p, proj, rate, nu, 0.5)
    got_u = unstable_slack_grid(sys_p, proj, rate, nu, 0.5)[0]
    assert np.array_equal(got_s, stable_slack_grid(sys_p, other, rate, nu, 0.5),
                          equal_nan=True)
    assert np.array_equal(got_u, unstable_slack_grid(sys_p, other, rate, nu, 0.5)[0],
                          equal_nan=True)
    assert not np.array_equal(got_s, base_s, equal_nan=True)
    assert not np.array_equal(got_u, base_u, equal_nan=True)
    assert np.array_equal(stable_slack_grid(sys, proj, rate, nu, 0.5), base_s,
                          equal_nan=True)


def test_handed_out_arrays_do_not_alias_the_march():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1), cond=2.0)
    sys, proj = model.system, model.projections
    grid, rel, _ = unstable_slack_grid(sys, proj, rate, nu, 0.5)
    keep_grid, keep_rel = grid.copy(), rel.copy()
    grid[:] = 0.0
    rel[:] = -1.0
    again, again_rel, _ = unstable_slack_grid(sys, proj, rate, nu, 0.5)
    assert np.array_equal(again, keep_grid, equal_nan=True)
    assert np.array_equal(again_rel, keep_rel)


def test_characterize_marches_once(monkeypatch):
    calls = []
    march = dichotomy._march

    def counted(sys, proj):
        calls.append(sys.window)
        return march(sys, proj)

    monkeypatch.setattr(dichotomy, "_march", counted)
    model, rate, nu = planted((0, 40), 1.0, 1.0, (2, 1), cond=3.0, seed=1)
    res = characterize(model.system, rate, nu)
    assert res.verify.passed
    assert calls == [res.projections.window]


# ------------------------------------------------------------------ properties


@settings(max_examples=15)
@given(seed=st.integers(0, 10**6),
       lam_s=st.floats(0.3, 1.5),
       lam_u=st.floats(0.3, 1.5),
       cond=st.floats(1.0, 20.0))
def test_fitted_certificate_always_verifies(seed, lam_s, lam_u, cond):
    model, rate, nu = planted((0, 18), lam_s, lam_u, (1, 1), cond=cond,
                              seed=seed)
    cert = fit_certificate(model.system, model.projections, rate, nu)
    report = verify_dichotomy(model.system, model.projections, rate, nu,
                              cert.D, cert.lam)
    assert report.passed, report.failure_reasons
