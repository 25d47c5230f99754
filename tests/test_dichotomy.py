"""Certificate checking and fitting for two-sided decay estimates.

Expected slacks and suprema are recomputed here with raw loops over the
unscaled evolution products wherever the window permits, so the grid code
in the package is never its own oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dicholab.admissibility as admissibility
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
    fit_certificate,
    geometric_gamma,
    make_nu,
    make_perturbation,
    make_planted_model,
    make_rate,
    perturbed_system,
    spectral_norm,
    system_from_json,
    system_to_json,
    verify_dichotomy,
)
from dicholab.dichotomy import stable_slack_grid, unstable_slack_grid
from dicholab.linalg import LOG_MAX, batched_spectral_norms, qr_pos

from helpers import (
    brute_slack_grids,
    planted,
    reference_family_bases,
    reference_grid_max,
    reference_march_grids,
    reference_planted,
    reference_side_slope,
)


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


@pytest.mark.parametrize("k", [1, 2, 5, 10, 15, 20, 25])
def test_worked_scalar_example_has_zero_slack_on_every_window(k):
    # each t_j = log scale_j + lam * d log mu_j cancels to 0.0 and each
    # increment log|1| is 0.0, so every cell is 0.0 however large log mu is
    model, rate, nu = planted((0, k), 0.5, 1.0, (1, 0), rate_kind="doubly_exponential")
    grid = stable_slack_grid(model.system, identity_projections((0, k), 1, 1), rate, nu, 0.5)
    assert np.all(grid[np.tri(k + 1, dtype=bool)] == 0.0)
    assert np.nanmax(grid) == 0.0


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


RAW_PRODUCT_CASES = [((0, 12), (2, 1), 4.0, "one_sided"), ((-8, 8), (1, 1), 2.0, "two_sided"),
                     ((0, 10), (3, 3), 3.0, "one_sided"), ((0, 12), (2, 2), 2.0, "one_sided"),
                     ((0, 12), (1, 2), 3.0, "one_sided"), ((0, 12), (1, 0), 3.0, "one_sided"),
                     ((0, 12), (0, 1), 3.0, "one_sided")]


def assert_grids_match(sys, proj, rate, nu, lam, tol=1e-8):
    """Both slack grids equal the raw-product oracle cell by cell: the same
    NaN and infinite cells, finite ones within tol, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (stable_slack_grid(sys, proj, rate, nu, lam),
               unstable_slack_grid(sys, proj, rate, nu, lam))
    for g, want in zip(got, brute_slack_grids(sys, proj, rate, nu, lam)):
        assert np.array_equal(np.isnan(g), np.isnan(want))
        assert np.array_equal(g[np.isinf(want)], want[np.isinf(want)])
        fin = np.isfinite(want)
        np.testing.assert_allclose(g[fin], want[fin], rtol=0.0, atol=tol)
    return got


def test_slack_grids_match_raw_products():
    # the raw products lose e^((lam_s + lam_u) * W) * eps to rounding, so the
    # exponents stay small enough for 1e-8 on every pair of W <= 16
    for window, dims, cond, domain in RAW_PRODUCT_CASES:
        for nu_kind in ("uniform", "power"):
            model, rate, nu = planted(window, 0.4, 0.5, dims, cond=cond, seed=6,
                                      domain=domain, nu_kind=nu_kind, epsilon=0.1)
            sys, proj = model.system, model.projections
            cert = model.certificate
            report = verify_dichotomy(sys, proj, rate, nu, cert.D, cert.lam)
            assert report.passed
            for lam in (0.0, cert.lam):
                grids = assert_grids_match(sys, proj, rate, nu, lam)
            for got, grid in zip((report.slack_stable, report.slack_unstable), grids):
                assert np.array_equal(got, grid - math.log(cert.D), equal_nan=True)
    # singular complementary step 4: only the unstable pairs across it stay
    # NaN, on a rank-one and on a rank-two complementary side
    sys, proj, rate, nu = sweep_case("singular_step")
    _, u_grid = assert_grids_match(sys, proj, rate, nu, 0.5)
    assert np.all(np.isnan(u_grid[:5, 5:])) and np.all(np.isfinite(u_grid[5, 6:]))
    assert np.isfinite(u_grid[1, 3])
    mats = np.stack([np.diag([0.5, 2.0, 3.0])] * 8)
    mats[4] = np.diag([0.5, 2.0, 0.0])
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 8))
    _, u_grid = assert_grids_match(sys, identity_projections((0, 8), 3, 1), rate, nu, 0.5)
    assert np.all(np.isnan(u_grid[:5, 5:]))
    assert np.all(np.isfinite(u_grid[np.triu_indices(5)]))
    assert np.all(np.isfinite(u_grid[5:, 5:][np.triu_indices(4)]))
    # (1, 1) with a stable block of exactly 0 at step 3: the rank-one closed
    # form takes log 0 = -inf there, quietly, for every pair across it
    mats = np.stack([np.diag([0.5, 2.0])] * 8)
    mats[3] = np.diag([0.0, 2.0])
    rate = make_rate("exponential", "one_sided", (0, 8))
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 8))
    proj = identity_projections((0, 8), 2, 1)
    s_grid, u_grid = assert_grids_match(sys, proj, rate, make_nu("uniform", rate), 0.5)
    assert np.all(s_grid[4:, :4] == -np.inf)
    assert np.all(np.isfinite(s_grid[:4, :4][np.tril_indices(4)]))
    assert np.all(np.isfinite(s_grid[4:, 4:][np.tril_indices(5)]))
    assert np.all(np.isfinite(u_grid[np.triu_indices(9)]))


def test_verify_reports_commuting_defect():
    model, rate, nu = planted((0, 6), 1.0, 1.0, (1, 1))
    proj_mats = np.stack([model.projections.matrix_at(n) for n in range(7)])
    proj_mats[3] = np.diag([0.0, 1.0])  # break invariance at one index
    proj = ProjectionFamily(window=(0, 6), projections=proj_mats, stable_rank=1)
    report = verify_dichotomy(model.system, proj, rate, nu, 1.0, 1.0)
    assert not report.passed
    assert report.max_commuting > 1e-3
    assert any("invariance" in r or "commut" in r for r in report.failure_reasons)


def rows_times(sys, k, log_k):
    """sys through its JSON form with every row times k and every log scale
    lowered by log_k = log k: the same A_n on rows of norm k ||M_n||."""
    doc = system_to_json(sys)
    for entry in doc["matrices"]:
        entry["rows"] = (k * np.array(entry["rows"])).tolist()
        entry["log_scale"] -= log_k
    return system_from_json(doc)


def planted_with_wrong_family():
    # ||M_n|| is about 1.12 here: cond 3 keeps the planted rows off unit norm
    model, rate, nu = planted((0, 20), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    wrong, _, _ = planted((0, 20), 1.0, 1.0, (2, 1), cond=3.0, seed=5)
    return model, wrong.projections, rate, nu


def test_commuting_family_on_large_rows_passes():
    # read on an absolute scale the residual of rows x1e8 was 6.8e-8, and
    # the planted family failed to commute
    model, _, rate, nu = planted_with_wrong_family()
    cert = model.certificate
    big = rows_times(model.system, 1e8, math.log(1e8))
    report = verify_dichotomy(big, model.projections, rate, nu, cert.D * (1 + 1e-9), cert.lam)
    assert report.passed, report.failure_reasons
    assert report.max_commuting < 1e-15


def test_wrong_family_on_small_rows_fails_to_commute():
    # read on an absolute scale, or against max(1, ||M_n||), the residual of
    # rows x1e-12 was 1.3e-12 and a wrong family passed the commuting check
    model, wrong, rate, nu = planted_with_wrong_family()
    cert = model.certificate
    tiny = rows_times(model.system, 1e-12, math.log(1e-12))
    report = verify_dichotomy(tiny, wrong, rate, nu, cert.D * (1 + 1e-9), cert.lam)
    assert report.failure_reasons[0].startswith("coefficients do not commute")
    assert report.max_commuting > 1.0


def test_rows_scaled_by_powers_of_two_keep_the_verdicts():
    model, wrong, rate, nu = planted_with_wrong_family()
    cert = model.certificate
    for proj in (model.projections, wrong):
        want = verify_dichotomy(model.system, proj, rate, nu, cert.D * (1 + 1e-9), cert.lam)
        for e in (500, -500):
            sys = rows_times(model.system, 2.0 ** e, e * math.log(2.0))
            got = verify_dichotomy(sys, proj, rate, nu, cert.D * (1 + 1e-9), cert.lam)
            assert got.failure_reasons == want.failure_reasons
            assert got.singular_steps == want.singular_steps
            # an exact power of two cancels from the residual to the last bit
            assert np.array_equal(got.commuting, want.commuting)


def test_stable_grid_projects_every_step_on_a_non_invariant_family():
    # with P_3 swapped for another rank-one projection the family is not
    # invariant, and the forward product is taken through P at every step
    model, rate, nu = planted((0, 6), 1.0, 1.0, (1, 1), cond=2.0, seed=3)
    sys = model.system
    p = model.projections.projections.copy()
    p[3] = np.full((2, 2), 0.5)
    proj = ProjectionFamily(window=(0, 6), projections=p, stable_rank=1)
    grid = stable_slack_grid(sys, proj, rate, nu, 0.0)
    for n in range(7):
        acc = p[n]
        for m in range(n, 7):
            if m > n:
                acc = p[m] @ sys.matrix(m - 1) @ acc
            assert grid[m, n] == pytest.approx(math.log(spectral_norm(acc)), abs=1e-12)


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
    # the per-n worst slacks are the NaN-skipping column maxima
    for key, grid in (("worst_slack_stable", report.slack_stable),
                      ("worst_slack_unstable", report.slack_unstable)):
        got = [row[key] for row in doc["per_n"]]
        assert got == [float(np.nanmax(grid[:, i])) for i in range(6)]


@pytest.mark.filterwarnings("error")
def test_verify_to_json_gives_null_for_columns_without_a_finite_slack():
    nan, inf = math.nan, math.inf
    grid = np.array([[nan, inf, -inf, -2.0, nan],
                     [nan, nan, -inf, nan, -inf],
                     [nan, 1.0, nan, 0.5, 3.0]])
    report = dichotomy.VerifyReport(
        window=(0, 4), D=1.0, lam=1.0, passed=False, failure_reasons=(),
        max_commuting=0.0, min_kernel_rel=1.0, max_slack_stable=inf,
        max_slack_unstable=inf, commuting=np.array([0.0, inf, 1e-17, nan]),
        kernel_rel=np.array([nan, 0.5, 1.0, 0.25]),
        slack_stable=grid, slack_unstable=-grid)
    rows = report.to_json()["per_n"]
    assert [r["worst_slack_stable"] for r in rows] == [None, None, None, 0.5, 3.0]
    assert [r["worst_slack_unstable"] for r in rows] == [None, -1.0, None, 2.0, None]
    assert [r["commuting"] for r in rows] == [0.0, None, 1e-17, None, None]
    assert [r["kernel_rel_sigma"] for r in rows] == [None, 0.5, 1.0, 0.25, None]


# --------------------------------------------------------------------- fitting


def test_fit_on_exact_exponential_block():
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1))
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert cert.lam == pytest.approx(1.0, abs=1e-6)
    assert cert.D <= 1.0 + 1e-8
    assert cert.eps == pytest.approx(0.0, abs=1e-6)


def test_fit_scalar_half_rate():
    for dims, lam in [((1, 0), 0.5), ((2, 0), 0.5), ((0, 2), 1.0)]:
        model, rate, nu = planted((0, 30), 0.5, 1.0, dims)
        sys, proj = model.system, model.projections
        cert = fit_certificate(sys, proj, rate, nu)
        assert cert.lam == pytest.approx(lam, abs=1e-6)
        assert cert.D == pytest.approx(1.0, abs=1e-8)
        # an empty side has no slope to offer the fit: stable cells all
        # -inf, unstable cells on the diagonal alone
        stable = dims[1] != 0
        sums, cum, h = moment_inputs(sys, proj, nu)
        assert dichotomy._moment_slope(sums, cum, h[stable], rate.log_values, stable)[0] is None


def test_fit_recovers_nu_exponent():
    rate = make_rate("exponential", "one_sided", (0, 60))
    nu = make_nu("power", rate, epsilon=0.1)
    model = make_planted_model_with(rate, nu, seed=7)
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert cert.eps == pytest.approx(0.1, rel=1e-14)


def make_planted_model_with(rate, nu, seed):
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


# ------------------------------------------------------ eps from (mu, nu) pairs


def fitted_eps(window, domain, kind, c=1.0, epsilon=0.0):
    """(eps, rate, nu): the eps fit_certificate fits from the (mu, nu) pairs
    of an exponential rate on a planted (1, 1) model."""
    rate = make_rate("exponential", domain, window)
    nu = make_nu(kind, rate, c=c, epsilon=epsilon)
    model = make_planted_model(rate, nu, 1.0, 1.0, (1, 1))
    return fit_certificate(model.system, model.projections, rate, nu).eps, rate, nu


def sup_nu_over_mu_eps(rate, nu, eps, indices, side=1):
    """Brute-force sup of nu_n * mu_n^(-side * eps) over the indices."""
    return max(math.exp(nu.log_at(n) - side * eps * rate.log_at(n)) for n in indices)


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_fitted_eps_of_uniform_nu_is_zero(c):
    # a constant nu has slope 0 against log mu, whatever its level
    eps, rate, nu = fitted_eps((0, 50), "one_sided", "uniform", c=c)
    assert eps == 0.0
    assert sup_nu_over_mu_eps(rate, nu, eps, range(0, 51)) == pytest.approx(c, rel=1e-15)


def test_fitted_eps_of_matched_power_nu_is_its_exponent():
    eps, rate, nu = fitted_eps((0, 50), "one_sided", "power", epsilon=0.1)
    assert eps == pytest.approx(0.1, rel=1e-14)
    assert sup_nu_over_mu_eps(rate, nu, eps, range(0, 51)) == pytest.approx(1.0, rel=1e-13)


def test_fitted_eps_absorbs_excess_nu_growth():
    # nu = mu^0.2: eps 0.1 would leave sup nu mu^-eps = e^10 at the right
    # end; the fit takes all of the growth, so the sup is 1
    eps, rate, nu = fitted_eps((0, 100), "one_sided", "power", epsilon=0.2)
    assert eps == pytest.approx(0.2, rel=1e-14)
    assert sup_nu_over_mu_eps(rate, nu, 0.1, range(0, 101)) == pytest.approx(
        math.exp(10.0), rel=1e-12)
    assert sup_nu_over_mu_eps(rate, nu, eps, range(0, 101)) == pytest.approx(1.0, rel=1e-12)


def test_fitted_eps_two_sided_reads_the_right_half_only():
    # nu = max(1, mu^0.1) is flat on the left half; the fit reads its slope
    # off n >= 0, and the mirrored left-tail sup of nu mu^eps sits at n = 0
    for kind, want in (("uniform", 0.0), ("power", 0.1)):
        eps, rate, nu = fitted_eps((-40, 40), "two_sided", kind, epsilon=0.1)
        assert eps == pytest.approx(want, rel=1e-14, abs=0.0)
        left = sup_nu_over_mu_eps(rate, nu, eps, range(-40, 1), side=-1)
        assert left == pytest.approx(1.0, rel=1e-15)
        assert sup_nu_over_mu_eps(rate, nu, eps, range(0, 41)) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("window,want", [((2, 10), 0.1), ((-10, -2), 0.0)])
def test_fitted_eps_on_a_window_off_index_zero(window, want):
    # a two-sided window off index 0: all of it right of 0 fits the power,
    # all of it left of 0 has no pair to fit and gives eps 0
    eps, rate, nu = fitted_eps(window, "two_sided", "power", epsilon=0.1)
    assert eps == pytest.approx(want, rel=1e-14, abs=0.0)
    indices = range(window[0], window[1] + 1)
    side = 1 if window[0] > 0 else -1
    assert sup_nu_over_mu_eps(rate, nu, eps, indices, side) == pytest.approx(1.0, rel=1e-13)


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


@pytest.mark.filterwarnings("error")
def test_projection_family_refuses_a_residual_beyond_a_double():
    # rank one, but P^2 - P overflows: a NaN residual is no pass
    p = np.zeros((4, 3, 3))
    p[:, 0, :2] = 1e160
    with pytest.raises(ConfigError, match="at n=0 is not idempotent"):
        ProjectionFamily(window=(0, 3), projections=p, stable_rank=1)


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
    # direction: pairs across it have no backward product
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
        got_u = unstable_slack_grid(sys, proj, rate, nu, lam)
        assert np.array_equal(got_s, stable_slack_grid(sys, other, rate, nu, lam),
                              equal_nan=True)
        assert np.array_equal(got_u, unstable_slack_grid(sys, other, rate, nu, lam),
                              equal_nan=True)
    steps, want = dichotomy.step_record(sys, proj), dichotomy.step_record(sys, other)
    rel, singular = steps.kernel_rel, tuple(np.flatnonzero(steps.singular).tolist())
    assert np.array_equal(rel, want.kernel_rel, equal_nan=True)
    assert np.array_equal(steps.singular, want.singular)
    if name == "worked":
        assert np.nanmax(stable_slack_grid(sys, proj, rate, nu, 0.5)) == 0.0
    if name == "singular_step":
        assert singular == (4,)
        assert rel[4] == 0.0 and np.all(rel[:4] == 1.0)
        assert np.all(np.isnan(got_u[:5, 5:]))
        assert np.all(np.isfinite(got_u[5, 6:])) and np.isfinite(got_u[1, 3])


def test_family_follows_the_system_object():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (1, 1), cond=2.0, seed=3)
    sys, proj = model.system, model.projections
    spec = PerturbationSpec(gamma=geometric_gamma(sys.window), c=0.3, seed=5)
    sys_p = perturbed_system(sys, make_perturbation(sys, rate, nu, spec))
    base_s = stable_slack_grid(sys, proj, rate, nu, 0.5)
    base_u = unstable_slack_grid(sys, proj, rate, nu, 0.5)
    other = fresh_family(proj)
    got_s = stable_slack_grid(sys_p, proj, rate, nu, 0.5)
    got_u = unstable_slack_grid(sys_p, proj, rate, nu, 0.5)
    assert np.array_equal(got_s, stable_slack_grid(sys_p, other, rate, nu, 0.5),
                          equal_nan=True)
    assert np.array_equal(got_u, unstable_slack_grid(sys_p, other, rate, nu, 0.5),
                          equal_nan=True)
    assert not np.array_equal(got_s, base_s, equal_nan=True)
    assert not np.array_equal(got_u, base_u, equal_nan=True)
    assert np.array_equal(stable_slack_grid(sys, proj, rate, nu, 0.5), base_s,
                          equal_nan=True)


def test_handed_out_arrays_do_not_alias_the_march():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1), cond=2.0)
    sys, proj = model.system, model.projections
    grid = unstable_slack_grid(sys, proj, rate, nu, 0.5)
    rel = verify_dichotomy(sys, proj, rate, nu, 2.0, 0.5).kernel_rel
    keep_grid, keep_rel = grid.copy(), rel.copy()
    grid[:] = 0.0
    rel[:] = -1.0
    # the bases the march reads, and the record the report copies from, are
    # handed out read-only
    steps = dichotomy.step_record(sys, proj)
    for basis in (proj.kernel_basis(3), proj.ranges, proj.kernels, steps.kernel_rel):
        with pytest.raises(ValueError, match="read-only"):
            basis[:] = 0.0
    assert np.array_equal(steps.kernel_rel, keep_rel)
    again = unstable_slack_grid(sys, proj, rate, nu, 0.5)
    assert np.array_equal(again, keep_grid, equal_nan=True)
    assert np.array_equal(verify_dichotomy(sys, proj, rate, nu, 2.0, 0.5).kernel_rel, keep_rel)


@pytest.mark.parametrize("window,dims,domain,cond", [
    ((0, 30), (2, 1), "one_sided", 5.0), ((-20, 20), (1, 1), "two_sided", 2.0),
    ((0, 12), (3, 3), "one_sided", 1.0), ((0, 12), (2, 0), "one_sided", 3.0),
    ((0, 12), (0, 2), "one_sided", 3.0)])
def test_family_bases_equal_a_per_index_svd_bit_for_bit(window, dims, domain, cond):
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=3, domain=domain)
    families = [model.projections]
    if all(dims):
        families.append(characterize(model.system, rate, nu).projections)
    for proj in families:
        ranges, kernels = reference_family_bases(proj)
        for i, n in enumerate(range(proj.window[0], proj.window[1] + 1)):
            assert np.array_equal(proj.kernel_basis(n), kernels[i])
        assert np.array_equal(proj.ranges, np.stack(ranges))
        assert np.array_equal(proj.kernels, np.stack(kernels))


def test_family_factors_its_projection_stack_once(monkeypatch):
    model, rate, nu = planted((0, 40), 1.0, 1.0, (2, 1), cond=5.0, seed=1)
    p = model.projections.projections
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.shape(a) == p.shape and np.array_equal(a, p):
            calls.append(kwargs)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    proj = ProjectionFamily(window=rate.window, projections=p, stable_rank=2)
    monkeypatch.undo()
    assert len(calls) == 1
    want = np.array([np.linalg.norm(p_n, 2) for p_n in p])
    assert np.all(np.abs(proj.norms - want) <= 4 * np.finfo(float).eps * want)
    with pytest.raises(ValueError, match="read-only"):
        proj.norms[0] = 1.0


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


def sheared_case(window, dims, domain, seed=3):
    """diag(1/2 .., 2 ..) steps seen through shears S_n = [[I, T_n], [0, I]]
    of random size, with P_n = S_n diag(I, 0) S_n^-1: ||Id - P_n|| changes
    from index to index."""
    d_s, d_u = dims
    a = window[1] - window[0] + 1
    rng = np.random.default_rng(seed)
    sims = np.tile(np.eye(d_s + d_u), (a, 1, 1))
    sims[:, :d_s, d_s:] = rng.uniform(0.0, 3.0, (a, 1, 1)) * rng.standard_normal((a, d_s, d_u))
    inv = np.linalg.inv(sims)
    mats = sims[1:] @ np.diag([0.5] * d_s + [2.0] * d_u) @ inv[:-1]
    proj = sims @ np.diag([1.0] * d_s + [0.0] * d_u) @ inv
    return (LinearSystem.from_matrices(mats, domain, window),
            ProjectionFamily(window=window, projections=proj, stable_rank=d_s))


@pytest.mark.parametrize("window,dims,domain", [
    ((0, 30), (2, 1), "one_sided"), ((-20, 20), (1, 1), "two_sided"),
    ((0, 12), (3, 3), "one_sided")])
def test_complement_coordinates_equal_the_per_index_loop(window, dims, domain):
    sys, proj = sheared_case(window, dims, domain)
    k = proj.kernels
    blocks = np.stack([k[j + 1].T @ sys.mats[j] @ k[j] for j in range(len(k) - 1)])
    assert np.array_equal(dichotomy.step_record(sys, proj).blocks, blocks)
    comp = np.eye(sys.dim) - proj.projections
    start = np.stack([k[i].T @ comp[i] for i in range(len(k))])
    # a complementary side of rank >= 2 starts from the square factor
    # K_n^T (Id - P_n) U_n, which drops the rounding-level part of the rows
    # outside U_n: the log norms agree to a few eps (5 eps is the worst seen
    # on planted dims (3, 3), (2, 2), (3, 2) and (1, 2) at cond 1, 3 and 20,
    # 2 eps on shears of those dims)
    want = np.log([np.linalg.norm(s, 2) for s in start])
    assert np.ptp(want) > 0.5
    # stored over the reversed window, as the side march runs
    got = dichotomy._march(sys, proj).unstable_log0
    assert np.max(np.abs(got - want[::-1])) <= 16 * np.finfo(float).eps


def singular_case(d_s, d_u):
    """diag(1/2 .., 2 ..) steps whose complementary blocks lose rank at steps
    3 and 7 of [0, 12], conjugated by one orthogonal factor per side."""
    d = d_s + d_u
    q = np.zeros((d, d))
    rng = np.random.default_rng(d)
    for lo, hi in ((0, d_s), (d_s, d)):
        q[lo:hi, lo:hi] = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
    diag = np.tile([0.5] * d_s + [2.0] * d_u, (12, 1))
    diag[3, -1] = diag[7, -1] = 0.0
    mats = q @ (diag[:, :, None] * np.eye(d)) @ q.T
    proj = np.tile(q @ np.diag([1.0] * d_s + [0.0] * d_u) @ q.T, (13, 1, 1))
    return (LinearSystem.from_matrices(mats, "one_sided", (0, 12)),
            ProjectionFamily(window=(0, 12), projections=proj, stable_rank=d_s))


def test_a_one_by_one_block_zero_up_to_rounding_is_singular():
    # diag(1/2, 1/2, 2) steps whose last entry vanishes at step 3, conjugated
    # by one orthogonal factor that mixes the sides: E_3 is zero only up to
    # rounding, and the relative test reads 1 on any nonzero 1 x 1 block
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    diag = np.tile([0.5, 0.5, 2.0], (12, 1))
    diag[3, -1] = 0.0
    sys = LinearSystem.from_matrices(q @ (diag[:, :, None] * np.eye(3)) @ q.T,
                                     "one_sided", (0, 12))
    proj = ProjectionFamily(window=(0, 12), stable_rank=2,
                            projections=np.tile(q @ np.diag([1.0, 1.0, 0.0]) @ q.T, (13, 1, 1)))
    rate = make_rate("exponential", "one_sided", (0, 12))
    steps = dichotomy.step_record(sys, proj)
    assert 0.0 < abs(steps.blocks[3, 0, 0]) < 1e-16 and steps.kernel_rel[3] == 1.0
    assert steps.singular.tolist() == [j == 3 for j in range(12)]
    report = verify_dichotomy(sys, proj, rate, make_nu("uniform", rate), 2.0, 0.5)
    assert report.singular_steps == (3,)
    assert report.failure_reasons == ("coefficient singular on complementary subspace at [3]",)
    assert report.min_kernel_rel == 1.0
    # measured against the coefficient, not against 1: a file may give rows
    # of any norm with their log scale, and the verdict must not move
    tiny = LinearSystem.from_scaled(sys.log_scales + math.log(1e12), 1e-12 * sys.mats,
                                    "one_sided", (0, 12))
    assert np.array_equal(dichotomy.step_record(tiny, proj).singular, steps.singular)


def zero_step_case(d_s, d_u):
    """diag(1/2 .., 2 ..) steps on [0, 12] whose whole step 3 is zero, so its
    log scale is -inf, conjugated by one orthogonal factor per side."""
    d = d_s + d_u
    q = np.zeros((d, d))
    rng = np.random.default_rng(d)
    for lo, hi in ((0, d_s), (d_s, d)):
        q[lo:hi, lo:hi] = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
    diag = np.tile([0.5] * d_s + [2.0] * d_u, (12, 1))
    diag[3] = 0.0
    mats = q @ (diag[:, :, None] * np.eye(d)) @ q.T
    proj = np.tile(q @ np.diag([1.0] * d_s + [0.0] * d_u) @ q.T, (13, 1, 1))
    return (LinearSystem.from_matrices(mats, "one_sided", (0, 12)),
            ProjectionFamily(window=(0, 12), projections=proj, stable_rank=d_s))


#: side ranks 0-3 on planted systems, alternately two- and one-sided
PLANTED_DIMS = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 1), (2, 1), (1, 2),
                (3, 3), (2, 3), (3, 1)]
#: the march's chunk of steps, and a window that crosses two chunk boundaries
CHUNK = dichotomy._CHUNK
W_CHUNKS = 2 * CHUNK + 1


def chunk_case(w, cut=None, zero=None):
    """A planted (3, 2) system on [0, w] from the per-index builder, its
    complementary block made singular at step ``cut`` or its whole step
    ``zero`` made zero, if given."""
    rate = make_rate("exponential", "one_sided", (0, w))
    log_scales, mats, projs, sims = reference_planted(rate, make_nu("uniform", rate), 0.6, 0.9,
                                                      (3, 2), 3.0, w)
    if cut is not None:
        mats[cut] = mats[cut] @ sims[cut] @ np.diag([1.0] * 4 + [0.0]) @ np.linalg.inv(sims[cut])
    if zero is not None:
        log_scales[zero] = -np.inf
    return (LinearSystem.from_scaled(log_scales, mats, "one_sided", (0, w)),
            ProjectionFamily(window=(0, w), projections=projs, stable_rank=3))


def march_case(kind, dims, at=None):
    """(system, family, rate, nu, fitted lam) of one reference case."""
    if kind == "planted":
        i = PLANTED_DIMS.index(dims)
        window, domain = ((0, 30), "one_sided") if i % 2 else ((-15, 15), "two_sided")
        model, rate, nu = planted(window, 0.6, 0.9, dims, cond=3.0, seed=i,
                                  domain=domain, nu_kind="power", epsilon=0.1)
        return model.system, model.projections, rate, nu, model.certificate.lam
    if kind == "sheared":
        window, domain = ((-10, 10), "two_sided") if dims == (1, 2) else ((0, 12), "one_sided")
        sys, proj = sheared_case(window, dims, domain)
    elif kind == "zero_step":
        sys, proj = zero_step_case(*dims)
    elif kind == "singular":
        sys, proj = singular_case(*dims)
    elif kind == "chunk":
        sys, proj = chunk_case(at)
    elif kind == "chunk-cut":
        sys, proj = chunk_case(W_CHUNKS, cut=at)
    else:
        sys, proj = chunk_case(W_CHUNKS, zero=at)
    rate = make_rate("exponential", sys.domain, sys.window)
    return sys, proj, rate, make_nu("uniform", rate), 0.5


def _march_param(kind, dims, at=None, name=""):
    return pytest.param(kind, dims, at, id=f"{kind}-{dims[0]}x{dims[1]}{name}")


#: chunk cases: windows of CHUNK - 1, CHUNK, CHUNK + 1 and W_CHUNKS steps,
#: then on the last, a singular complementary step and a zero step as the
#: last or the first step of a chunk (reversed step j is window step W - 1 - j)
MARCH_CASES = ([_march_param("planted", d) for d in PLANTED_DIMS]
               + [_march_param("sheared", d) for d in [(2, 1), (1, 2), (3, 3)]]
               + [_march_param("singular", d) for d in [(2, 1), (1, 2), (1, 3)]]
               + [_march_param("zero_step", d) for d in [(2, 1), (1, 2)]]
               + [_march_param("chunk", (3, 2), w, name) for w, name in
                  [(CHUNK - 1, "-under"), (CHUNK, "-at"), (CHUNK + 1, "-over"),
                   (W_CHUNKS, "-twice")]]
               + [_march_param("chunk-cut", (3, 2), W_CHUNKS - 1 - CHUNK, "-first"),
                  _march_param("chunk-cut", (3, 2), W_CHUNKS - CHUNK, "-last"),
                  _march_param("chunk-zero", (3, 2), CHUNK - 1, "-last"),
                  _march_param("chunk-zero", (3, 2), CHUNK, "-first")])


@pytest.mark.parametrize("kind,dims,at", MARCH_CASES)
def test_side_march_on_the_reversed_window_matches_the_two_loop_march(kind, dims, at):
    sys, proj, rate, nu, lam_fit = march_case(kind, dims, at)
    steps = dichotomy.step_record(sys, proj)
    if kind == "singular":
        assert steps.singular.tolist() == [j in (3, 7) for j in range(12)]
    if kind == "zero_step":
        assert sys.log_scales[3] == -np.inf
        assert steps.singular.tolist() == [j == 3 for j in range(12)]
    if kind in ("chunk-cut", "chunk-zero"):
        assert steps.singular.tolist() == [j == at for j in range(W_CHUNKS)]
        assert (sys.log_scales[at] == -np.inf) == (kind == "chunk-zero")
    w, eps = sys.window[1] - sys.window[0], np.finfo(float).eps
    for lam in (0.0, 0.7, lam_fit):
        want = reference_march_grids(sys, proj, rate, nu, lam)
        got = (stable_slack_grid(sys, proj, rate, nu, lam),
               unstable_slack_grid(sys, proj, rate, nu, lam))
        for g, r in zip(got, want):
            assert np.array_equal(np.isnan(g), np.isnan(r))
            assert np.array_equal(np.isinf(g), np.isinf(r))
            assert np.array_equal(g[np.isinf(g)], r[np.isinf(r)])
            # the grid adds one cumulative sum of the t_j to the march's
            # running sums, the reference folds t_j + increment per step:
            # W-term sums each, which round apart by a few W eps (worst seen
            # 2.8 W eps max(1, |cell|): 5.3e-14 on cells up to 38 at W = 30)
            finite = np.isfinite(r)
            scale = max(1.0, np.max(np.abs(r[finite]), initial=0.0))
            assert np.max(np.abs(g[finite] - r[finite]), initial=0.0) <= 4 * w * eps * scale
        if kind in ("zero_step", "chunk-zero"):
            # pairs after the zero step stay finite, stable ones across it
            # collapse, and no backward product crosses it
            z = 3 if kind == "zero_step" else at
            stable, unstable = got
            after = np.tri(w - z, dtype=bool)
            assert np.all(np.isfinite(stable[z + 1:, z + 1:][after]))
            assert np.all(stable[z + 1:, :z + 1] == -np.inf)
            assert np.all(np.isnan(unstable[:z + 1, z + 1:]))
            assert np.all(np.isfinite(unstable[z + 1:, z + 1:][after.T]))


def test_march_sums_the_logs_of_steps_beyond_the_double_range():
    # each step is 2^+-600 times an orthogonal block on either side, so the
    # forward products overflow the doubles within three steps and the
    # backward ones underflow, while every grid cell is the sum of the
    # steps' logs, 600 ln 2 times an integer
    w = W_CHUNKS
    rng = np.random.default_rng(5)
    k = rng.choice([600, 600, -600], w)
    mats = np.zeros((w, 4, 4))
    for lo in (0, 2):
        mats[:, lo:lo + 2, lo:lo + 2] = np.ldexp(qr_pos(rng.standard_normal((w, 2, 2)))[0],
                                                 k[:, None, None])
    sys = LinearSystem.from_scaled(np.zeros(w), mats, "one_sided", (0, w))
    sums = dichotomy._march(sys, identity_projections((0, w), 4, 2)).sums
    assert np.max(np.cumsum(k)) * math.log(2.0) > 3 * LOG_MAX
    eps, log_step = np.finfo(float).eps, 600 * math.log(2.0)
    for m in range(w + 1):
        for n in range(w + 1):
            # below the diagonal F_n .. F_{m-1}, above it E_m^-1 .. E_{n-1}^-1
            signs = np.sign(k[n:m]) if m >= n else -np.sign(k[m:n])
            want = math.fsum(log_step * signs)
            # e ln 2 rounds once, the orthogonal part's norm by about eps a
            # step (worst seen 1.3 eps (1 + |m - n| + |want|) on five seeds)
            assert abs(sums[m, n] - want) <= 2 * eps * (1 + abs(m - n) + abs(want)), (m, n)


COMPLEMENT_CASES = [((0, 30), (2, 1), "one_sided"), ((-20, 20), (1, 1), "two_sided"),
                    ((0, 12), (3, 3), "one_sided")]


@pytest.mark.parametrize("window,dims,domain", COMPLEMENT_CASES)
def test_complement_steps_are_inverted_once_and_never_solved(monkeypatch, window,
                                                               dims, domain):
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=3.0, seed=3, domain=domain)
    sys, proj = model.system, model.projections
    calls = []

    def spy(name):
        fn = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    ys = np.random.default_rng(1).standard_normal((window[1] - window[0] + 1, 3, sys.dim))
    for _ in range(2):
        dichotomy._march(sys, proj)
        admissibility._green_convolve(sys, proj, ys)
    monkeypatch.undo()
    # one batched inverse for the record, shared by both marches and both
    # recursions; no factorization per running product or per step
    assert calls == ["inv"]


@pytest.mark.parametrize("window,dims,domain", COMPLEMENT_CASES)
@pytest.mark.parametrize("cond", [3.0, 20.0])
def test_stored_inverses_invert_the_complementary_steps(window, dims, domain, cond):
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=4, domain=domain)
    steps = dichotomy.step_record(model.system, model.projections)
    assert not steps.singular.any()
    # an LU inverse's residual is O(cond * eps) with a factor of the
    # dimension: 1.9 * cond * eps is the worst seen on 3 x 3 blocks
    eps = np.finfo(float).eps
    for e, inv in zip(steps.blocks, steps.inverses):
        resid = np.linalg.norm(inv @ e - np.eye(e.shape[0]), 2)
        assert resid <= e.shape[0] * np.linalg.cond(e) * eps


def test_singular_steps_get_no_inverse():
    mats = np.stack([np.diag([0.5, 2.0, 2.0])] * 6)
    mats[2] = np.diag([0.5, 2.0, 0.0])
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 6))
    proj = ProjectionFamily(window=(0, 6), projections=np.stack([np.diag([1.0, 0.0, 0.0])] * 7),
                            stable_rank=1)
    steps = dichotomy.step_record(sys, proj)
    assert steps.singular.tolist() == [False, False, True, False, False, False]
    assert np.isnan(steps.inverses[2]).all()
    # unit coefficients: the complementary block of diag(1/4, 1, 1) is Id
    assert np.array_equal(steps.inverses[0], np.eye(2))


@pytest.mark.parametrize("dims", [(2, 1), (1, 1), (2, 2), (3, 3)])
def test_march_on_thin_sides_takes_no_svd(monkeypatch, dims):
    model, rate, nu = planted((0, 40), 1.0, 1.0, dims, cond=3.0, seed=1)
    sys, proj = model.system, model.projections
    # the step record is shared with the Green recursion and
    # measures sigma_min by SVD; build it before spying on the march
    dichotomy.step_record(sys, proj)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    sweep = dichotomy._march(sys, proj)
    monkeypatch.undo()
    # rank >= 3 blocks take the Gram's top eigenvalue, so no side takes an SVD
    assert calls == []
    assert np.array_equal(sweep.stable_log0, np.log(proj.norms))


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (1, 0), (0, 1), (0, 2)])
def test_rank_one_sides_take_no_norms_per_step(monkeypatch, dims):
    # one norm call for the unstable start, then one per chunk of steps of
    # each side of rank >= 2; a side of rank <= 1 adds a single log per step
    w = W_CHUNKS
    model, rate, nu = planted((0, w), 1.0, 1.0, dims, cond=3.0, seed=1)
    sys, proj = model.system, model.projections
    dichotomy.step_record(sys, proj)
    calls = []

    def counted(stack):
        calls.append(np.shape(stack))
        return batched_spectral_norms(stack)

    monkeypatch.setattr(dichotomy, "batched_spectral_norms", counted)
    sweep = dichotomy._march(sys, proj)
    monkeypatch.undo()
    chunks = -(-w // CHUNK)
    assert len(calls) == 1 + chunks * (dims[0] > 1) + chunks * (dims[1] > 1)
    # one (W+1)^2 grid of running sums: 0 on the diagonal, the stable side
    # below it (-inf with no stable side), the unstable side above it (NaN
    # with no unstable side)
    sums = sweep.sums
    assert sums.shape == (w + 1, w + 1) and np.all(np.diag(sums) == 0.0)
    below, above = sums[np.tril_indices(w + 1, -1)], sums[np.triu_indices(w + 1, 1)]
    assert np.all(below == -np.inf) if dims[0] == 0 else np.all(np.isfinite(below))
    assert np.all(np.isnan(above)) if dims[1] == 0 else np.all(np.isfinite(above))


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (3, 3), (1, 2), (3, 2)])
def test_march_norms_square_blocks_of_each_side_rank(monkeypatch, dims):
    # ||X L Q|| = ||X L|| for Q with orthonormal rows: each side carries a
    # square factor of its start, so no stack is d columns wide; every stack
    # is a view whose rows, stack.T, the kernel reads in place
    w = W_CHUNKS
    model, rate, nu = planted((0, w), 1.0, 1.0, dims, cond=3.0, seed=2)
    sys, proj = model.system, model.projections
    dichotomy.step_record(sys, proj)
    calls = []
    in_place = []

    def counted(stack):
        calls.append(np.shape(stack))
        in_place.append(np.shares_memory(stack.T.reshape(-1, len(stack)), stack))
        return batched_spectral_norms(stack)

    monkeypatch.setattr(dichotomy, "batched_spectral_norms", counted)
    dichotomy._march(sys, proj)
    monkeypatch.undo()
    assert all(in_place)
    d_s, d_u = dims
    # a chunk of steps j takes the j + 1 running products of each step at
    # once, on either side when no step is singular; the unstable start
    # comes between the sides, the stable one reads the family's norms
    per_chunk = [sum(j + 1 for j in range(lo, min(lo + CHUNK, w)))
                 for lo in range(0, w, CHUNK)]
    want = [(n, d_s, d_s) for n in per_chunk] if d_s > 1 else []
    want += [(w + 1, d_u, d_u if d_u > 1 else d_s + d_u)]
    want += [(n, d_u, d_u) for n in per_chunk] if d_u > 1 else []
    assert calls == want


@pytest.mark.parametrize("dims", [(2, 1), (1, 1), (1, 0), (0, 2)])
def test_grid_reductions_match_their_index_array_forms(dims):
    # the in-place reduction keeps every bit of the gather form, on grids
    # holding NaN, -inf (collapsed products) and nothing but NaN
    model, rate, nu = planted((0, 24), 0.8, 1.2, dims, cond=2.0, seed=4)
    sys, proj = model.system, model.projections
    grids = [stable_slack_grid(sys, proj, rate, nu, lam) for lam in (0.0, 0.7)]
    grids += [unstable_slack_grid(sys, proj, rate, nu, lam) for lam in (0.0, 0.7)]
    holed = grids[0].copy()
    holed[5:9, 2:4] = -np.inf
    holed[12, :3] = np.nan
    grids += [holed, np.full((25, 25), np.nan)]
    for grid in grids:
        got, want = dichotomy._grid_max(grid), reference_grid_max(grid)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    assert dichotomy._grid_max(grids[-1]) == -np.inf


#: largest relative move of a moment slope from the regression on the
#: gathered cells: both are sums of ~1e5 rounded terms in different orders,
#: and the 13 benchmark operations and 150 corpus draws move by <= 1.5e-14
MOMENT_SLOPE_REL = 1e-13


def moment_inputs(sys, proj, nu):
    """(sums, C, {stable: h}) of the family's march, as the fit reads them."""
    sweep, ls = dichotomy._sweep(sys, proj), sys.log_scales
    cum = np.cumsum(np.concatenate(([0.0], np.where(np.isneginf(ls), 0.0, ls))))
    return sweep.sums, cum, {True: sweep.stable_log0 - nu.log_values,
                             False: sweep.unstable_log0[::-1] - nu.log_values}


def lam0_grid(sums, cum, h, stable):
    """One side's lam = 0 grid (C_m - C_n) + sums + h_n, folded in the test."""
    keep = np.tri(cum.size, dtype=bool)
    grid = np.full(sums.shape, np.nan)
    np.subtract.outer(cum, cum, out=grid, where=keep if stable else keep.T)
    return grid + sums + h


def assert_moment_slope(sums, cum, h, lm, stable):
    """The moment slope against the regression on the gathered finite cells
    of the folded grid: equal pair counts, equal None, slopes within
    MOMENT_SLOPE_REL."""
    got = dichotomy._moment_slope(sums, cum, h, lm, stable)
    want = reference_side_slope(lam0_grid(sums, cum, h, stable), lm, stable)
    assert got[1] == want[1]
    if want[0] is None:
        assert got[0] is None
    else:
        assert got[0] == pytest.approx(want[0], rel=MOMENT_SLOPE_REL, abs=0.0)
    return got


def offset_rate_case():
    # log mu = 1e6 + n: the planted steps of the exponential rate, but each
    # uncentred (log mu)^2 term is 1e12 while the differences stay below 61
    rate = make_rate("table", "one_sided", (0, 60), table=1e6 + np.arange(61.0))
    nu = make_nu("uniform", rate)
    model = make_planted_model(rate, nu, 0.8, 1.3, (2, 1), cond=2.0, seed=3)
    return model.system, model.projections, rate, nu


MOMENT_CASES = {
    "one_sided_2x1": lambda: planted((0, 40), 0.8, 1.3, (2, 1), cond=2.0, seed=1),
    "one_sided_1x1": lambda: planted((0, 40), 0.5, 1.0, (1, 1)),
    "unstable_diagonal_only": lambda: planted((0, 30), 0.5, 1.0, (1, 0), cond=2.0, seed=2),
    "stable_empty": lambda: planted((0, 30), 0.5, 1.0, (0, 2), cond=2.0, seed=2),
    "polynomial_two_sided": lambda: planted((-30, 30), 1.2, 0.9, (2, 1), cond=3.0, seed=5,
                                            domain="two_sided", rate_kind="polynomial"),
    "nu_power_two_sided": lambda: planted((-40, 40), 1.0, 1.0, (2, 2), cond=2.0, seed=6,
                                          domain="two_sided", nu_kind="power", epsilon=0.1),
}


@pytest.mark.parametrize("name", [*MOMENT_CASES, "offset_rate", "worked", "singular_step"])
def test_moment_slope_matches_the_regression_on_the_gathered_cells(name):
    if name == "offset_rate":
        sys, proj, rate, nu = offset_rate_case()
    elif name in MOMENT_CASES:
        model, rate, nu = MOMENT_CASES[name]()
        sys, proj = model.system, model.projections
    else:
        sys, proj, rate, nu = sweep_case(name)
    sums, cum, h = moment_inputs(sys, proj, nu)
    for stable in (True, False):
        # the test's fold is the library's, bit for bit
        grid = (stable_slack_grid if stable else unstable_slack_grid)(sys, proj, rate, nu, 0.0)
        assert lam0_grid(sums, cum, h[stable], stable).tobytes() == grid.tobytes()
        slope, pairs = assert_moment_slope(sums, cum, h[stable], rate.log_values, stable)
        a = cum.size
        if name == "unstable_diagonal_only" and not stable:
            # Id - P_n is zero or rounding: no cell, or the diagonal alone
            assert slope is None and pairs in (0, a)
        elif name == "stable_empty" and stable:
            assert (slope, pairs) == (None, 0)
        elif name == "singular_step" and not stable:
            assert pairs == 5 * 6 // 2 + 4 * 5 // 2  # the pairs on either side of step 4
        elif name != "worked":
            assert slope > 0.0 and pairs == a * (a + 1) // 2


def test_moment_slope_on_holes_and_degenerate_sides():
    model, rate, nu = planted((0, 24), 0.8, 1.2, (2, 1), cond=2.0, seed=4)
    sums, cum, h = moment_inputs(model.system, model.projections, nu)
    lm, a = rate.log_values, cum.size
    holed = sums.copy()
    holed[5:9, 2:4] = holed[2:4, 5:9] = -np.inf
    holed[12, :3] = holed[:3, 12] = np.nan
    for stable in (True, False):
        hs = h[stable].copy()
        hs[7] = -np.inf  # a -inf log norm drops its whole column
        holes = assert_moment_slope(holed, cum, hs, lm, stable)
        cells = np.tri(a, dtype=bool) if stable else np.tri(a, dtype=bool).T
        cells &= np.isfinite(holed) & np.isfinite(hs)
        assert holes[1] == int(np.sum(cells)) and holes[0] > 0.0

        nothing = np.full((a, a), np.nan)
        assert assert_moment_slope(nothing, cum, h[stable], lm, stable) == (None, 0)
        one_cell = nothing.copy()
        one_cell[(9, 3) if stable else (3, 9)] = 0.25
        assert assert_moment_slope(one_cell, cum, h[stable], lm, stable) == (None, 1)
        # the diagonal alone has every x = 0, however its moments round
        diagonal = np.where(np.eye(a, dtype=bool), 0.0, np.nan)
        assert assert_moment_slope(diagonal, cum, h[stable], lm, stable) == (None, a)
        # one more cell gives two distinct x and a slope through two means
        diagonal[one_cell == 0.25] = 0.25
        assert assert_moment_slope(diagonal, cum, h[stable], lm, stable)[1] == a + 1

    # a two-sided polynomial window: log mu is odd about n = 0, so x = 2 log mu_m
    # on the cells (m, -m); those alone with the diagonal still give a slope,
    # as log mu strictly increases and x = 0 only on the diagonal
    model, rate, nu = planted((-20, 20), 1.2, 0.9, (1, 1), domain="two_sided",
                              rate_kind="polynomial")
    sums, cum, h = moment_inputs(model.system, model.projections, nu)
    lm, a = rate.log_values, cum.size
    mirror = np.eye(a, dtype=bool) | np.eye(a, dtype=bool)[::-1]
    for stable in (True, False):
        assert_moment_slope(sums, cum, h[stable], lm, stable)
        only = np.where(mirror, sums, np.nan)
        assert assert_moment_slope(only, cum, h[stable], lm, stable)[1] == a + a // 2


@pytest.mark.xfail(strict=True, reason="the stable block of a step is below the "
                   "rounding of its unit coefficient, so the fold reads noise as growth")
def test_exact_planted_dichotomy_reports_no_stable_violation():
    # a planted doubly exponential system is dichotomic by construction; from
    # step 3 its stable block is about e^-40 of the coefficient, below eps
    model, rate, nu = planted((0, 4), 0.5428965413148318, 0.9856133651375585, (2, 1),
                              cond=1.0000000000000002, seed=16,
                              rate_kind="doubly_exponential")
    cert = model.certificate
    report = verify_dichotomy(model.system, model.projections, rate, nu, cert.D, cert.lam)
    assert not any("stable estimate violated" in r for r in report.failure_reasons)


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
