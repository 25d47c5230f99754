"""Coefficient storage, evolution products, and planted ground-truth models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dicholab import (
    ConfigError,
    KernelSingularError,
    LinearSystem,
    RepresentabilityError,
    evolution_scaled,
    make_nu,
    make_planted_model,
    make_rate,
    spectral_norm,
    system_from_json,
    system_to_json,
    verify_dichotomy,
)

from helpers import brute_evolution, brute_green, planted, reference_planted, solver_kernel


def diag_system(entries, window=(0, 5), domain="one_sided"):
    w = window[1] - window[0]
    mats = np.stack([np.diag(entries)] * w)
    return LinearSystem.from_matrices(mats, domain, window)


# ------------------------------------------------------------------ evolution


def scaled_evolution(sys, m, n):
    c, r = evolution_scaled(sys, m, n)
    return math.exp(c) * r


def test_evolution_identity_at_equal_indices():
    sys = diag_system([0.5, 2.0])
    c, r = evolution_scaled(sys, 3, 3)
    assert c == 0.0
    assert np.array_equal(r, np.eye(2))


def test_evolution_rejects_backward_pairs():
    sys = diag_system([0.5, 2.0])
    with pytest.raises(ConfigError):
        evolution_scaled(sys, 1, 3)


def test_evolution_diagonal_powers():
    sys = diag_system([0.5, 2.0])
    got = scaled_evolution(sys, 4, 1)
    assert np.allclose(got, np.diag([0.125, 8.0]), rtol=1e-15)


def test_evolution_scalar_doubly_exponential_square_root_decay():
    # A_n = (mu_{n+1}/mu_n)^(-1/2) for mu_n = e^(e^n); products telescope
    model, rate, nu = planted((0, 3), 0.5, 1.0, (1, 0),
                              rate_kind="doubly_exponential")
    sys = model.system
    for m in range(4):
        for n in range(m + 1):
            want = math.exp(-0.5 * (math.e ** m - math.e ** n))
            assert scaled_evolution(sys, m, n)[0, 0] == pytest.approx(want, rel=1e-13)


def test_evolution_matches_brute_force():
    model, _, _ = planted((0, 12), 0.7, 0.9, (2, 1), cond=5.0, seed=3)
    sys = model.system
    got = scaled_evolution(sys, 10, 2)
    want = brute_evolution(sys, 10, 2)
    assert np.allclose(got, want, rtol=1e-12)


def test_evolution_scaled_consistency():
    model, _, _ = planted((0, 15), 1.0, 1.0, (1, 2), cond=3.0, seed=1)
    sys = model.system
    c, m = evolution_scaled(sys, 12, 3)
    raw = brute_evolution(sys, 12, 3)
    assert np.allclose(math.exp(c) * m, raw, rtol=1e-10)
    assert spectral_norm(m) == pytest.approx(1.0, rel=1e-12)


def test_evolution_scaled_survives_extreme_windows():
    # raw products overflow doubles long before n = 12 here
    model, rate, nu = planted((0, 12), 0.5, 0.5, (1, 1),
                              rate_kind="doubly_exponential")
    c, m = evolution_scaled(model.system, 12, 0)
    assert math.isfinite(c)
    assert c == pytest.approx(0.5 * (math.e ** 12 - 1.0), rel=1e-12)


@settings(max_examples=20)
@given(seed=st.integers(0, 10**6),
       split=st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)))
def test_cocycle_law(seed, split):
    n, j, k = sorted(split)
    model, _, _ = planted((0, 10), 0.8, 1.1, (2, 2), cond=4.0, seed=seed)
    sys = model.system
    lhs = scaled_evolution(sys, k, j) @ scaled_evolution(sys, j, n)
    rhs = scaled_evolution(sys, k, n)
    scale = max(1.0, float(np.linalg.norm(rhs, 2)))
    assert np.linalg.norm(lhs - rhs, 2) / scale < 1e-10


# -------------------------------------------------- backward (kernel) products
#
# Above the diagonal the Green kernel is minus the backward evolution on the
# complementary subspace, G(m, n) = -A(m, n)(Id - P_n) for m < n; these read
# it off the solver's impulse responses.


def test_backward_evolution_diagonal_inverse():
    sys = diag_system([0.5, 2.0])
    from dicholab import ProjectionFamily

    p = np.stack([np.diag([1.0, 0.0])] * 6)
    proj = ProjectionFamily(window=(0, 5), projections=p, stable_rank=1)
    back = -solver_kernel(sys, proj, 4)[1]
    assert back[1, 1] == pytest.approx(0.125, rel=1e-14)
    assert np.array_equal(back[0], np.zeros(2))
    assert np.array_equal(back[:, 0], np.zeros(2))
    # on the diagonal the kernel is P_n: no backward part
    assert np.array_equal(solver_kernel(sys, proj, 2)[2], p[2])


def test_backward_evolution_planted_isometry_up_to_rate():
    # all directions expanding: backward norms contract at exactly e^-(n-m)
    model, _, _ = planted((0, 8), 1.0, 1.0, (0, 3))
    sys, proj = model.system, model.projections
    rng = np.random.default_rng(0)
    for m, n in ((0, 5), (2, 7), (3, 4)):
        f = -solver_kernel(sys, proj, n)[m]
        v = rng.standard_normal(3)
        assert np.linalg.norm(f @ v) == pytest.approx(
            math.exp(-(n - m)) * np.linalg.norm(v), rel=1e-12)


def test_backward_evolution_inverts_forward_restriction():
    model, _, _ = planted((0, 10), 0.6, 1.2, (2, 2), cond=6.0, seed=9)
    sys, proj = model.system, model.projections
    emb = -solver_kernel(sys, proj, 6)[2]
    fwd = brute_evolution(sys, 6, 2)
    comp = np.eye(4) - proj.matrix_at(6)
    # forward after backward reproduces the complementary projection at 6
    assert np.allclose(fwd @ emb @ comp, comp, atol=1e-9 * np.linalg.norm(comp, 2))
    assert np.allclose(emb, -brute_green(sys, proj, 2, 6),
                       atol=1e-12 * np.linalg.norm(emb, 2))


def test_backward_evolution_rejects_singular_steps():
    mats = np.stack([np.diag([0.5, 0.0])] * 4)
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 4))
    from dicholab import ProjectionFamily

    p = np.stack([np.diag([1.0, 0.0])] * 5)
    proj = ProjectionFamily(window=(0, 4), projections=p, stable_rank=1)
    with pytest.raises(KernelSingularError, match="n=3"):
        solver_kernel(sys, proj, 3)


# -------------------------------------------------------------- planted models


def test_planted_exponential_block_coefficients():
    model, _, _ = planted((0, 6), 1.0, 1.0, (1, 1))
    sys = model.system
    for n in range(6):
        assert np.allclose(sys.matrix(n), np.diag([math.exp(-1.0), math.e]),
                           rtol=1e-14)
    assert model.certificate.D == 1.0
    assert model.certificate.lam == 1.0


def test_planted_doubly_exponential_scalar_matches_rate_ratio():
    model, rate, _ = planted((0, 6), 0.5, 1.0, (1, 0),
                             rate_kind="doubly_exponential")
    sys = model.system
    for n in range(6):
        dl = rate.log_at(n + 1) - rate.log_at(n)
        assert sys.log_scales[n] == pytest.approx(-0.5 * dl, rel=1e-15)
        assert sys.mats[n][0, 0] == 1.0


def test_planted_nu_twist_verifies():
    rate = make_rate("polynomial", "one_sided", (0, 40))
    nu = make_nu("power", rate, epsilon=0.1)
    model = make_planted_model(rate, nu, 1.0, 1.0, (1, 1), cond=8.0, seed=7)
    report = verify_dichotomy(model.system, model.projections, rate, nu,
                              model.certificate.D, model.certificate.lam)
    assert report.passed, report.failure_reasons


def test_planted_projections_commute_and_rank():
    model, _, _ = planted((0, 20), 0.5, 1.5, (2, 3), cond=10.0, seed=2)
    sys, proj = model.system, model.projections
    assert proj.stable_rank == 2
    for n in range(5):
        lhs = sys.matrix(n) @ proj.matrix_at(n)
        rhs = proj.matrix_at(n + 1) @ sys.matrix(n)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1, np.linalg.norm(lhs, 2)))


def test_planted_similarity_conditioning_is_respected():
    model, _, _ = planted((0, 10), 1.0, 1.0, (2, 2), cond=10.0, seed=4)
    for s in model.similarity:
        sv = np.linalg.svd(s, compute_uv=False)
        assert sv[0] / sv[-1] <= 10.0 * (1 + 1e-10)
    # so the unit cores leave each M_n with a norm between 1 and cond, not 1
    norms = spectral_norm(model.system.mats)
    assert np.all(norms >= 1.0 - 1e-12) and np.all(norms <= 10.0 * (1 + 1e-10))
    assert np.max(norms) > 1.1


@pytest.mark.parametrize("dims", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("cond", [1.0, 3.0])
@pytest.mark.parametrize("window,domain,rate_kind", [
    ((0, 24), "one_sided", "exponential"), ((-12, 12), "two_sided", "polynomial"),
    ((0, 6), "one_sided", "doubly_exponential")])
def test_planted_model_equals_the_per_index_build(dims, cond, window, domain, rate_kind):
    rate = make_rate(rate_kind, domain, window)
    nu = make_nu("power", rate, epsilon=0.1)
    model = make_planted_model(rate, nu, 0.7, 1.1, dims, cond=cond, seed=16)
    log_scales, mats, projs, sims = reference_planted(rate, nu, 0.7, 1.1, dims, cond, 16)
    assert np.array_equal(model.system.log_scales, log_scales)
    assert np.array_equal(model.system.mats, mats)
    assert np.array_equal(model.projections.projections, projs)
    assert np.array_equal(model.similarity, sims)


def test_planted_validation():
    rate = make_rate("exponential", "one_sided", (0, 5))
    nu = make_nu("uniform", rate)
    with pytest.raises(ConfigError):
        make_planted_model(rate, nu, -1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        make_planted_model(rate, nu, 1.0, 1.0, (0, 0))


# ------------------------------------------------------- storage and round-trip


def test_from_matrices_normalizes_scale():
    a = np.array([[[3.0, 0.0], [0.0, 1.0]]])
    sys = LinearSystem.from_matrices(a, "one_sided", (0, 1))
    assert sys.log_scales[0] == pytest.approx(math.log(3.0), rel=1e-15)
    assert np.allclose(sys.matrix(0), a[0], rtol=1e-15)


def test_zero_coefficient_allowed():
    a = np.zeros((2, 2, 2))
    sys = LinearSystem.from_matrices(a, "one_sided", (0, 2))
    assert sys.log_scales[0] == float("-inf")
    assert np.array_equal(sys.matrix(0), np.zeros((2, 2)))


def test_overflowing_scale_raises_on_raw_access():
    sys = LinearSystem.from_scaled([800.0], np.eye(2)[None], "one_sided", (0, 1))
    with pytest.raises(OverflowError):
        sys.matrix(0)
    c, m = evolution_scaled(sys, 1, 0)
    assert c == pytest.approx(800.0)


@pytest.mark.parametrize("window, log_scales", [
    # -inf steps, scales that underflow to zero (so negative entries give
    # -0.0) or to subnormals, and one where np.exp and math.exp differ
    ((0, 7), [0.3, -np.inf, -800.0, -745.2, 58.04570834872845, -np.inf, -708.9]),
    ((-3, 3), [-552.3066086016786, -760.0, 0.0, -np.inf, 700.0, -188.93537913842107]),
])
def test_raw_stack_is_the_per_index_stack_bit_for_bit(window, log_scales):
    w = window[1] - window[0]
    mats = np.random.default_rng(2).standard_normal((w, 3, 3))
    sys = LinearSystem.from_scaled(log_scales, mats, "two_sided" if window[0] else "one_sided",
                                   window)
    want = np.stack([sys.matrix(n) for n in range(*window)])
    got = sys.matrices()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.signbit(got[got == 0.0]).any()
    assert not np.signbit(got[np.isneginf(sys.log_scales)]).any()


def test_raw_stack_refuses_the_first_overflowing_scale_as_matrix_does():
    sys = LinearSystem.from_scaled([1.0, -np.inf, 800.0, 2.0, 900.0], np.ones((5, 2, 2)),
                                   "two_sided", (-2, 3))
    with pytest.raises(RepresentabilityError) as per_index:
        sys.matrix(0)
    with pytest.raises(RepresentabilityError) as stacked:
        sys.matrices()
    assert str(stacked.value) == str(per_index.value)
    assert str(stacked.value).startswith("coefficient at n=0 has log scale 800;")


def test_system_validation():
    with pytest.raises(ConfigError):
        LinearSystem.from_matrices(np.ones((1, 2, 3)), "one_sided", (0, 1))
    with pytest.raises(ConfigError):
        LinearSystem.from_matrices(np.full((1, 2, 2), np.nan), "one_sided", (0, 1))
    with pytest.raises(ConfigError):
        LinearSystem.from_matrices(np.ones((2, 2, 2)), "one_sided", (1, 3))
    with pytest.raises(ConfigError):
        LinearSystem.from_matrices(np.ones((600, 2, 2)), "one_sided", (0, 600))


def test_restrict_window_and_domain_flip():
    model, _, _ = planted((0, 10), 1.0, 1.0, (1, 1), cond=2.0, seed=5)
    sub = model.system.restrict(3, 8)
    assert sub.window == (3, 8)
    assert sub.domain == "two_sided"  # left end moved off 0
    assert np.array_equal(sub.mats, model.system.mats[3:8])
    same = model.system.restrict(0, 8)
    assert same.domain == "one_sided"
    with pytest.raises(ConfigError):
        model.system.restrict(5, 5)


def test_json_round_trip_is_exact():
    model, _, _ = planted((0, 7), 0.9, 1.3, (2, 1), cond=7.0, seed=11)
    doc = system_to_json(model.system)
    back = system_from_json(doc)
    assert back.window == model.system.window
    assert back.domain == model.system.domain
    assert np.array_equal(back.mats, model.system.mats)
    assert np.array_equal(back.log_scales, model.system.log_scales)


def test_json_round_trip_zero_step():
    a = np.zeros((2, 2, 2))
    a[1] = np.eye(2)
    sys = LinearSystem.from_matrices(a, "one_sided", (0, 2))
    back = system_from_json(system_to_json(sys))
    assert back.log_scales[0] == float("-inf")
    assert np.array_equal(back.mats, sys.mats)


def test_json_rejects_bad_documents():
    model, _, _ = planted((0, 3), 1.0, 1.0, (1, 0))
    doc = system_to_json(model.system)
    doc["matrices"][0]["n"] = 99
    with pytest.raises(ConfigError):
        system_from_json(doc)
    doc2 = system_to_json(model.system)
    del doc2["matrices"][1]
    with pytest.raises(ConfigError):
        system_from_json(doc2)


def test_planted_model_carries_ground_truth():
    model, _, _ = planted((0, 4), 1.0, 2.0, (1, 1), cond=3.0, seed=8)
    assert model.certificate.lam == 1.0
    assert model.projections.stable_rank == 1
    assert model.projections.dim == 2
    assert model.projections.projections.shape[0] == 5
