"""Kernel representation, the two independent solvers, and the norm probes.

The divergence table is checked against a 60-digit mpmath recomputation of
the raw sequence, written before the log-domain implementation and kept
independent of it.
"""

import math
import re
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dicholab import (
    BoundaryCondition,
    ConfigError,
    KernelSingularError,
    LinearSystem,
    OracleMismatchError,
    PerturbationSpec,
    ProjectionFamily,
    RepresentabilityError,
    WeightedNormSpec,
    fit_certificate,
    geometric_gamma,
    make_nu,
    make_rate,
    norm,
    one_sided_boundary,
    oracle_solve,
    operator_norm_T,
    run_counterexample,
    smallness_margin,
    solve_admissibility,
    spectral_norm,
    two_sided_boundary,
    uniqueness_probe,
    verify_dichotomy,
)
from dicholab import admissibility, dichotomy
from dicholab.dichotomy import unstable_slack_grid
from dicholab.linalg import max_principal_angle

from helpers import (brute_evolution, brute_green, planted, random_input, sequential_point,
                     solver_kernel)


def mp_counterexample(n_max, dps=60):
    """Raw-value recomputation of the divergence table.

    mu_k = exp(exp(k)); the running sum and both square roots are evaluated
    at high precision, so the returned logs are exact to far better than the
    1e-9 comparison tolerance.
    """
    with mp.workdps(dps):
        mu = [mp.e ** (mp.e ** k) for k in range(n_max + 2)]
        acc = mp.mpf(0)
        out = []
        for n in range(1, n_max + 1):
            acc += (mu[n + 1] - mu[n]) / mu[n] * mp.sqrt(mu[n])
            x = acc / mp.sqrt(mu[n])
            bound = 2 * (mp.sqrt(mu[n + 1] / mu[n]) - mp.sqrt(mu[1] / mu[n]))
            out.append((n, float(mp.log(x)), float(mp.log(bound))))
        return out


# -------------------------------------------------------------- counterexample


def test_counterexample_matches_high_precision_oracle():
    got = run_counterexample(10)
    want = mp_counterexample(10)
    assert len(got) == 10
    for (n_g, lx_g, lb_g), (n_w, lx_w, lb_w) in zip(got, want):
        assert n_g == n_w
        assert lx_g == pytest.approx(lx_w, abs=1e-9)
        assert lb_g == pytest.approx(lb_w, abs=1e-9)


def test_counterexample_frozen_first_row():
    rows = run_counterexample(3)
    assert rows[0][1] == pytest.approx(4.6613651273292591, abs=1e-12)


def test_counterexample_bound_holds_and_diverges():
    rows = run_counterexample(10)
    for n, log_x, log_bound in rows:
        assert log_x >= log_bound - admissibility.COUNTEREXAMPLE_TOL
    # unbounded already by n = 3: the lower bound passes a million
    assert rows[2][2] > math.log(1e6)
    logs = [r[1] for r in rows]
    assert all(b > a for a, b in zip(logs, logs[1:]))


def test_counterexample_input_validation():
    for bad in (0, 41, -1, 2.5, "3"):
        with pytest.raises(ConfigError):
            run_counterexample(bad)


# --------------------------------------------------------------- Green kernel


def test_kernel_with_full_projection_is_evolution():
    model, _, _ = planted((0, 6), 0.5, 1.0, (2, 0), cond=3.0, seed=1)
    sys = model.system
    for n in range(7):
        col = solver_kernel(sys, model.projections, n)
        for m in range(7):
            if m >= n:
                assert np.allclose(col[m], brute_evolution(sys, m, n), rtol=1e-12,
                                   atol=1e-15)
            else:
                assert np.allclose(col[m], 0.0, atol=1e-15)


def test_kernel_scalar_doubly_exponential_values():
    model, rate, _ = planted((0, 3), 0.5, 1.0, (1, 0),
                             rate_kind="doubly_exponential")
    for n in range(4):
        col = solver_kernel(model.system, model.projections, n)
        for m in range(n, 4):
            want = math.exp(-0.5 * (rate.log_at(m) - rate.log_at(n)))
            assert col[m][0, 0] == pytest.approx(want, rel=1e-13)


def test_kernel_planted_block_norms():
    model, _, _ = planted((0, 10), 1.0, 1.0, (1, 1))
    for n in range(11):
        col = solver_kernel(model.system, model.projections, n)
        for m in range(11):
            want = math.exp(-abs(m - n))
            assert spectral_norm(col[m]) == pytest.approx(want, rel=1e-10)


def test_kernel_row_recurrence_and_diagonal_jump():
    model, _, _ = planted((0, 8), 0.8, 1.1, (2, 2), cond=5.0, seed=4)
    sys = model.system
    d = sys.dim
    for n in range(9):
        col = solver_kernel(sys, model.projections, n)
        for m in range(8):
            lhs = col[m + 1]
            rhs = sys.matrix(m) @ col[m]
            if m + 1 == n:
                # crossing the diagonal picks up the identity jump
                assert np.allclose(col[n] - rhs, np.eye(d), atol=1e-8)
            else:
                scale = max(1.0, spectral_norm(lhs))
                assert np.allclose(lhs, rhs, atol=1e-8 * scale)


def test_solver_kernel_matches_brute_kernel():
    # the recursion's impulse responses against raw products, pair by pair
    for domain, window, dims in (("one_sided", (0, 6), (1, 1)),
                                 ("two_sided", (-4, 5), (2, 1)),
                                 ("one_sided", (0, 5), (1, 2))):
        model, _, _ = planted(window, 1.0, 1.0, dims, cond=3.0, seed=2, domain=domain)
        sys, proj = model.system, model.projections
        for n in range(window[0], window[1] + 1):
            col = solver_kernel(sys, proj, n)
            for m in range(window[0], window[1] + 1):
                want = brute_green(sys, proj, m, n)
                assert np.allclose(col[m - window[0]], want, rtol=1e-10,
                                   atol=1e-12 * max(1.0, spectral_norm(want)))
    model, _, _ = planted((0, 4), 1.0, 1.0, (1, 1), cond=3.0, seed=2)
    sys, proj = model.system, model.projections
    want = proj.matrix_at(3) @ sys.matrix(2) @ sys.matrix(1) @ proj.matrix_at(1)
    assert np.allclose(solver_kernel(sys, proj, 1)[3], want, rtol=1e-12, atol=1e-14)


# ----------------------------------------------------------- stacked recursion


@pytest.mark.parametrize("domain, window, dims, cond, width", [
    ("one_sided", (0, 40), (2, 1), 5.0, 7),
    ("two_sided", (-20, 20), (1, 2), 3.0, 7),
    ("one_sided", (0, 30), (2, 0), 2.0, 7),
    ("two_sided", (-15, 15), (0, 2), 4.0, 7),
    # the widths an admissibility scan stacks: 4 weights of 1 + 3 + 16
    # columns at d = 3, and 3 weights of 1 + 6 + 16 at d = 6
    ("one_sided", (0, 128), (2, 1), 1.0, 80),
    ("two_sided", (-64, 64), (3, 3), 1.0, 69),
    ("one_sided", (0, 40), (3, 3), 3.0, 96),
])
def test_stacked_recursion_equals_single_columns(domain, window, dims, cond, width):
    model, _, _ = planted(window, 0.9, 1.1, dims, cond=cond, seed=5, domain=domain)
    sys, proj = model.system, model.projections
    ys = np.random.default_rng(3).standard_normal((window[1] - window[0] + 1, width, sys.dim))
    got = admissibility._green_convolve(sys, proj, ys)
    assert got.shape == ys.shape
    for j in range(width):
        one = admissibility._green_convolve(sys, proj, ys[:, j:j + 1])
        assert np.array_equal(got[:, j:j + 1], one)


@pytest.mark.parametrize("window, dims, domain", [
    ((0, 40), (2, 1), "one_sided"), ((-15, 15), (0, 2), "two_sided"),
    ((0, 30), (2, 0), "one_sided")])
def test_green_recursion_forms_no_raw_coefficient(monkeypatch, window, dims, domain):
    model, _, _ = planted(window, 0.9, 1.1, dims, cond=3.0, seed=5, domain=domain)
    sys, proj = model.system, model.projections
    ys = np.random.default_rng(3).standard_normal((window[1] - window[0] + 1, 2, sys.dim))
    want = admissibility._green_convolve(sys, proj, ys)

    def refuse(*args):
        raise AssertionError("raw coefficient formed")

    monkeypatch.setattr(LinearSystem, "matrices", refuse)
    monkeypatch.setattr(LinearSystem, "matrix", refuse)
    assert np.array_equal(admissibility._green_convolve(sys, proj, ys), want)


@pytest.mark.parametrize("dims", [(0, 1), (1, 1), (2, 1)])
def test_green_recursion_refuses_the_first_unrepresentable_step(dims):
    # the recursion checks each step's scale itself, also with no stable
    # side, before the solve residual forms a raw coefficient
    model, _, _ = planted((0, 9), 1.0, 1.0, dims, rate_kind="doubly_exponential")
    ys = np.ones((10, 1, sum(dims)))
    with pytest.raises(RepresentabilityError, match="^coefficient at n=7 has log scale"):
        admissibility._green_convolve(model.system, model.projections, ys)


@pytest.mark.parametrize("scales,singular,error,message", [
    ({5: 800.0, 9: 900.0}, None, RepresentabilityError, "coefficient at n=5 has log scale 800;"),
    ({4: -800.0, 8: -900.0}, None, RepresentabilityError,
     "inverse coefficient at n=8 has log scale 900;"),
    ({3: 800.0, 8: -900.0}, None, RepresentabilityError, "coefficient at n=3 has log scale 800;"),
    ({4: -800.0}, 9, KernelSingularError,
     "coefficient at n=9 is singular on the complementary subspace"),
    ({9: -800.0}, 4, RepresentabilityError, "inverse coefficient at n=9 has log scale 800;"),
])
def test_green_recursion_names_the_failure_its_loops_meet_first(scales, singular, error,
                                                                  message):
    # the forward loop runs first, the backward one from the top, which
    # checks a step's singular verdict before its inverse scale
    model, _, _ = planted((0, 12), 1.0, 1.0, (1, 2), cond=2.0, seed=3)
    sys, proj = model.system, model.projections
    log_scales, mats = sys.log_scales.copy(), sys.mats.copy()
    for i, v in scales.items():
        log_scales[i] = v
    if singular is not None:
        mats[singular] = mats[singular] @ proj.projections[singular]
    sys = LinearSystem.from_scaled(log_scales, mats, sys.domain, sys.window)
    with pytest.raises(error, match="^" + message):
        admissibility._green_convolve(sys, proj, np.ones((13, 1, 3)))


def test_doubly_exponential_contraction_solves_without_an_inverse_scale():
    # no complementary side: the steps' inverse scales, up to e^1884 here,
    # are never formed, and the scalar recursion is the raw one bit for bit
    model, rate, nu = planted((0, 9), 1.0, 1.0, (1, 0), rate_kind="doubly_exponential")
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=3)
    rep = solve_admissibility(sys, proj, y, 0.0, rate, nu, one_sided_boundary(proj))
    x = np.zeros_like(y)
    for i in range(9):
        x[i + 1] = sys.matrix(i) @ x[i] + y[i + 1]
    assert np.array_equal(rep.solution, x)


def test_standalone_solve_does_not_march(monkeypatch):
    calls = []
    march = dichotomy._march

    def counted(sys, proj):
        calls.append(sys.window)
        return march(sys, proj)

    monkeypatch.setattr(dichotomy, "_march", counted)
    model, rate, nu = planted((0, 60), 1.0, 1.0, (2, 1), cond=3.0, seed=1)
    sys, proj = model.system, model.projections
    solve_admissibility(sys, proj, random_input(sys, seed=4), 0.2, rate, nu,
                        one_sided_boundary(proj))
    assert calls == []
    # the O(W) step record is built and kept on the family
    assert dichotomy.step_record(sys, proj) is proj._steps


def singular_threshold_case(rel):
    """diag(1/2, 2, 2) steps on a one-dimensional stable family, except that
    step 4 shrinks one complementary direction to relative size rel."""
    mats = np.stack([np.diag([0.5, 2.0, 2.0])] * 8)
    mats[4] = np.diag([0.5, 2.0, 2.0 * rel])
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 8))
    p = np.stack([np.diag([1.0, 0.0, 0.0])] * 9)
    proj = ProjectionFamily(window=(0, 8), projections=p, stable_rank=1)
    rate = make_rate("exponential", "one_sided", (0, 8))
    return sys, proj, rate, make_nu("uniform", rate)


@pytest.mark.parametrize("rel, singular", [(5e-11, True), (2e-10, False)])
def test_march_and_recursion_share_the_singular_verdict(rel, singular):
    sys, proj, rate, nu = singular_threshold_case(rel)
    steps = dichotomy.step_record(sys, proj)
    assert steps.kernel_rel[4] == pytest.approx(rel, rel=1e-12)
    assert tuple(np.flatnonzero(steps.singular).tolist()) == ((4,) if singular else ())
    # the march stops at a singular step: the pair across it stays NaN
    grid = unstable_slack_grid(sys, proj, rate, nu, 0.0)
    assert np.isnan(grid[4, 5]) == singular
    y = np.zeros((9, 3))
    y[6] = [0.0, 1.0, 1.0]
    boundary = one_sided_boundary(proj)
    if singular:
        with pytest.raises(KernelSingularError, match="n=4"):
            solve_admissibility(sys, proj, y, 0.0, rate, nu, boundary)
    else:
        rep = solve_admissibility(sys, proj, y, 0.0, rate, nu, boundary)
        assert rep.max_residual <= 1e-10


# --------------------------------------------------------------------- solving


def test_solve_zero_input_gives_zero():
    model, rate, nu = planted((0, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=3)
    sys, proj = model.system, model.projections
    y = np.zeros((16, 2))
    rep = solve_admissibility(sys, proj, y, 0.0, rate, nu,
                              one_sided_boundary(proj))
    assert np.array_equal(rep.solution, np.zeros((16, 2)))
    assert rep.bound_constant == 0.0
    assert rep.max_residual == 0.0


def test_solve_impulse_reproduces_kernel_column():
    model, rate, nu = planted((0, 12), 0.9, 1.2, (2, 1), cond=4.0, seed=8)
    sys, proj = model.system, model.projections
    k0 = 5
    v = np.array([0.3, -1.1, 0.7])
    y = np.zeros((13, 3))
    y[k0] = v
    rep = solve_admissibility(sys, proj, y, 0.0, rate, nu,
                              one_sided_boundary(proj))
    for n in range(13):
        want = brute_green(sys, proj, n, k0) @ v
        assert np.allclose(rep.solution[n], want, atol=1e-12 * max(
            1.0, np.linalg.norm(want)))
    assert rep.left_constraint_norm <= 1e-12
    assert rep.max_residual <= 1e-12


def test_solve_rejects_nonzero_left_input_one_sided():
    model, rate, nu = planted((0, 5), 1.0, 1.0, (1, 1))
    y = np.zeros((6, 2))
    y[0, 0] = 1.0
    with pytest.raises(ConfigError):
        solve_admissibility(model.system, model.projections, y, 0.0, rate, nu,
                            one_sided_boundary(model.projections))


def test_solve_shape_and_domain_validation():
    model, rate, nu = planted((0, 5), 1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        solve_admissibility(model.system, model.projections,
                            np.zeros((3, 2)), 0.0, rate, nu,
                            one_sided_boundary(model.projections))
    with pytest.raises(ConfigError):
        solve_admissibility(model.system, model.projections,
                            np.zeros((6, 2)), 0.0, rate, nu,
                            two_sided_boundary())
    with pytest.raises(ConfigError):
        solve_admissibility(model.system, model.projections,
                            np.zeros((6, 2)), 0.0, rate, nu,
                            one_sided_boundary(model.projections),
                            variant="weird")


def test_boundary_refuses_a_z_basis_off_orthonormal_by_1e_6():
    # a Gram residual of 1e-6 is far above ORTHONORMAL_TOL; allclose's
    # default relative tolerance of 1e-5 would have let it through
    z = np.array([[0.0], [1.0 + 5e-7]])
    assert abs((z.T @ z)[0, 0] - 1.0) == pytest.approx(1e-6, rel=1e-3)
    with pytest.raises(ConfigError, match="Z basis columns are not orthonormal"):
        BoundaryCondition(kind="one_sided_Z", z_basis=z)
    assert BoundaryCondition(kind="one_sided_Z", z_basis=np.eye(2)[:, 1:]).z_basis.shape == (2, 1)


def test_solvers_refuse_a_z_that_does_not_span_the_family_complement():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1), cond=3.0, seed=2)
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=1)
    k0 = proj.kernel_basis(0)
    off = BoundaryCondition(kind="one_sided_Z", z_basis=np.eye(2)[:, :1])
    assert max_principal_angle(off.z_basis, k0) > 0.1
    wide = BoundaryCondition(kind="one_sided_Z", z_basis=np.eye(2))
    for z in (off, wide):
        with pytest.raises(ConfigError, match="does not span the family's complement at n=0"):
            solve_admissibility(sys, proj, y, 0.0, rate, nu, z)
        with pytest.raises(ConfigError, match="does not span the family's complement at n=0"):
            oracle_solve(sys, proj, y, z)
    # another basis of the same span is the same boundary
    flipped = BoundaryCondition(kind="one_sided_Z", z_basis=-k0)
    want = solve_admissibility(sys, proj, y, 0.0, rate, nu, one_sided_boundary(proj))
    got = solve_admissibility(sys, proj, y, 0.0, rate, nu, flipped)
    assert np.array_equal(got.solution, want.solution)


def test_solver_agrees_with_sparse_oracle_one_sided():
    model, rate, nu = planted((0, 100), 0.7, 1.0, (2, 2), cond=3.0, seed=5)
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=42)
    rep = solve_admissibility(sys, proj, y, 0.2, rate, nu,
                              one_sided_boundary(proj))
    x_oracle = oracle_solve(sys, proj, y, one_sided_boundary(proj),
                            reference=rep.solution)
    denom = max(np.max(np.linalg.norm(rep.solution, axis=1)),
                np.max(np.linalg.norm(x_oracle, axis=1)))
    rel = np.max(np.linalg.norm(rep.solution - x_oracle, axis=1)) / denom
    assert rel <= 1e-8
    assert rep.max_residual <= 1e-10 * max(1.0, np.max(np.linalg.norm(y, axis=1)))


def test_solver_agrees_with_sparse_oracle_two_sided():
    model, rate, nu = planted((-20, 20), 1.0, 0.8, (1, 2), cond=6.0, seed=12,
                              domain="two_sided")
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=7, one_sided_zero=False)
    rep = solve_admissibility(sys, proj, y, -0.1, rate, nu,
                              two_sided_boundary())
    x_oracle = oracle_solve(sys, proj, y, two_sided_boundary(),
                            reference=rep.solution)
    denom = max(np.max(np.linalg.norm(rep.solution, axis=1)),
                np.max(np.linalg.norm(x_oracle, axis=1)))
    rel = np.max(np.linalg.norm(rep.solution - x_oracle, axis=1)) / denom
    assert rel <= 1e-8


def test_oracle_mismatch_detection():
    model, _, _ = planted((0, 8), 1.0, 1.0, (1, 1))
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=1)
    good = oracle_solve(sys, proj, y, one_sided_boundary(proj))
    bad = good.copy()
    bad[4] += 1.0
    # the message names the index of the largest difference
    with pytest.raises(OracleMismatchError,
                       match=r"^solver and oracle disagree: relative error \S+ at n=4$"):
        oracle_solve(sys, proj, y, one_sided_boundary(proj), reference=bad)


def test_oracle_refuses_a_boundary_of_the_other_domain():
    # inputs vanish at the left end, so only the domain check can refuse them
    two, _, _ = planted((-4, 4), 1.0, 1.0, (1, 1), domain="two_sided")
    one, _, _ = planted((0, 8), 1.0, 1.0, (1, 1))
    for model, boundary, msg in [
            (two, one_sided_boundary(two.projections), "one-sided boundary on a two-sided system"),
            (one, two_sided_boundary(), "two-sided boundary on a one-sided system")]:
        sys, proj = model.system, model.projections
        with pytest.raises(ConfigError, match=msg):
            oracle_solve(sys, proj, random_input(sys, seed=1), boundary)


def test_bound_constant_within_fitted_certificate():
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=4.0, seed=9)
    sys, proj = model.system, model.projections
    cert = fit_certificate(sys, proj, rate, nu)
    y = random_input(sys, seed=3)
    rep = solve_admissibility(sys, proj, y, 0.3, rate, nu,
                              one_sided_boundary(proj))
    assert rep.bound_constant <= cert.D * (1.0 + 1e-6)


# ------------------------------------------------------------- operator norm


def test_operator_norm_scalar_contraction_is_one():
    # every coefficient contracts, so the weighted kernel sup sits on the
    # diagonal where the kernel is the identity projection
    model, rate, nu = planted((0, 4), 0.5, 1.0, (1, 0),
                              rate_kind="doubly_exponential")
    out = operator_norm_T(model.system, model.projections, rate, nu, 0.0)
    assert out["exact_sup"] == pytest.approx(1.0, rel=1e-12)
    assert out["sampled_lb"] == pytest.approx(1.0, rel=1e-10)
    assert out["sampled_lb"] <= out["exact_sup"] * (1 + 1e-8)
    m, n = out["argmax_pair"]
    assert m == n and n >= 1


@pytest.mark.parametrize("toward", [math.inf, -math.inf])
def test_argmax_pair_holds_when_a_tied_projection_norm_moves_one_ulp(monkeypatch, toward):
    # dims (2, 0): P_n = Id, so every diagonal cell of the one-sided Green
    # grid ties at log ||P_n|| = 0; the tie rule reports the one of smallest
    # n whichever ||P_n|| rounding moves, while exact_sup stays the maximum
    model, rate, nu = planted((0, 11), 1.0, 1.0, (2, 0))
    sys, proj = model.system, model.projections
    assert np.all(proj.norms == 1.0)
    for i in range(1, 12):
        other = ProjectionFamily(window=proj.window, projections=proj.projections.copy(),
                                 stable_rank=2)
        norms = other.norms.copy()
        norms[i] = np.nextafter(1.0, toward)
        monkeypatch.setitem(other.__dict__, "norms", norms)
        exact, pair = admissibility.operator_norm_sup(sys, other, rate, nu, 0.0)
        assert pair == (1, 1)
        assert exact == max(1.0, math.exp(math.log(norms[i])))


def test_operator_norm_zero_system():
    sys = LinearSystem.from_matrices(np.zeros((6, 2, 2)), "one_sided", (0, 6))
    p = np.stack([np.eye(2)] * 7)
    proj = ProjectionFamily(window=(0, 6), projections=p, stable_rank=2)
    rate = make_rate("exponential", "one_sided", (0, 6))
    nu = make_nu("uniform", rate)
    out = operator_norm_T(sys, proj, rate, nu, 0.0)
    assert out["exact_sup"] == pytest.approx(1.0)
    assert out["sampled_lb"] <= 1.0 * (1 + 1e-8)


def test_operator_norm_sampled_below_exact():
    for seed in range(4):
        model, rate, nu = planted((0, 25), 0.8, 1.1, (2, 1), cond=5.0,
                                  seed=seed)
        out = operator_norm_T(model.system, model.projections, rate, nu,
                              0.25, seed=seed)
        assert out["sampled_lb"] <= out["exact_sup"] * (1 + 1e-8)
        assert out["samples"] >= 1
        assert math.isfinite(out["exact_sup"])


def test_operator_norm_refuses_a_sampled_bound_above_the_supremum(monkeypatch):
    # a supremum that reads half its true value, at the true maximizing pair:
    # the impulse there attains the true value, which no lower bound may pass
    sup = admissibility.operator_norm_sup

    def halved(*args):
        exact, arg = sup(*args)
        return exact / 2.0, arg

    monkeypatch.setattr(admissibility, "operator_norm_sup", halved)
    model, rate, nu = planted((0, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=2)
    with pytest.raises(OracleMismatchError, match="beta=0: sampled lower bound"):
        operator_norm_T(model.system, model.projections, rate, nu, 0.0)


def test_operator_norm_attains_the_supremum_on_a_doubly_exponential_window():
    # cond 20 on a short doubly exponential window: solves that formed the
    # raw coefficients overshot the log-domain supremum by 70 percent; the
    # family's coordinates reach it to rounding
    model, rate, nu = planted((-8, 4), 1.0, 1.2, (1, 1), cond=20.0, seed=1,
                              domain="two_sided", rate_kind="doubly_exponential")
    out = operator_norm_T(model.system, model.projections, rate, nu, 0.0)
    assert out["sampled_lb"] == pytest.approx(out["exact_sup"], rel=1e-12)


def test_operator_norm_impulse_attains_sup():
    # the impulse at the maximizing pair drives the solver to the kernel sup
    model, rate, nu = planted((0, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=2)
    out = operator_norm_T(model.system, model.projections, rate, nu, 0.0,
                          n_samples=0)
    assert out["sampled_lb"] == pytest.approx(out["exact_sup"], rel=1e-10)


# ------------------------------------------------------------ weights in one scan

#: (rate kind, domain, window, dims, cond, seed) of the systems a scan runs on
SCAN_SYSTEMS = {
    "exp-1x1": ("exponential", "one_sided", (0, 15), (1, 1), 2.0, 2),
    "exp-2x1": ("exponential", "one_sided", (0, 30), (2, 1), 3.0, 1),
    "poly-2s-1x2": ("polynomial", "two_sided", (-12, 12), (1, 2), 2.0, 4),
    "exp-3x3": ("exponential", "one_sided", (0, 12), (3, 3), 1.0, 0),
    "dexp-1x1": ("doubly_exponential", "one_sided", (0, 6), (1, 1), 1.0, 1),
    # raw A_7 overflows a double: the recursion refuses every weight
    "dexp-overflow": ("doubly_exponential", "one_sided", (0, 9), (1, 1), 1.0, 0),
}


def same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (rep, tnorm), (rep_w, tnorm_w) = got, want
    assert rep.solution.tobytes() == rep_w.solution.tobytes()
    assert repr(rep.to_json()) == repr(rep_w.to_json())
    assert repr(tnorm) == repr(tnorm_w)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(SCAN_SYSTEMS)),
       betas=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-720.0, -2.0, 2.0])),
                      min_size=1, max_size=4),
       n_samples=st.integers(0, 4), seed=st.integers(0, 3),
       halve=st.none() | st.integers(0, 3))
# a supremum that reads half its value at one weight only: that weight's
# sampled bound passes it, the other weight is untouched
@example(name="exp-1x1", betas=[0.3, 0.0], n_samples=2, seed=0, halve=1)
# the impulse at k* = 6 has weighted norm 0 at beta = -2 only
@example(name="dexp-1x1", betas=[0.0, -2.0, 0.5], n_samples=3, seed=0, halve=None)
# the draws scaled to unit norm at beta = -720 overflow; the other weight's do not
@example(name="exp-2x1", betas=[-720.0, 0.25], n_samples=3, seed=1, halve=None)
@example(name="dexp-overflow", betas=[0.1, -0.5], n_samples=2, seed=0, halve=None)
def test_scan_equals_the_sequential_point_per_beta(name, betas, n_samples, seed, halve):
    kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS[name]
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                              domain=domain, rate_kind=kind)
    sys, proj = model.system, model.projections
    boundary = one_sided_boundary(proj) if domain == "one_sided" else two_sided_boundary()
    ys = [random_input(sys, seed=j) for j in range(len(betas))]
    sup = admissibility.operator_norm_sup

    def halved(sys, proj, rate, nu, beta):
        exact, arg = sup(sys, proj, rate, nu, beta)
        if halve is not None and beta == betas[halve % len(betas)]:
            exact /= 2.0
        return exact, arg

    with mock.patch.object(admissibility, "operator_norm_sup", halved):
        got = admissibility.scan_betas(sys, proj, ys, betas, rate, nu, boundary,
                                       n_samples=n_samples, seed=seed)
        want = [sequential_point(sys, proj, y, b, rate, nu, boundary, n_samples, seed)
                for y, b in zip(ys, betas)]
    assert len(got) == len(betas)
    for g, w in zip(got, want):
        same_outcome(g, w)


def test_scan_pins_hold_their_failures(monkeypatch):
    # each pinned example above reaches the failure it is there for
    def outcomes(name, betas, n_samples=3, seed=0):
        kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS[name]
        model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                                  domain=domain, rate_kind=kind)
        sys, proj = model.system, model.projections
        ys = [random_input(sys, seed=j) for j in range(len(betas))]
        return [o if isinstance(o, Exception) else None for o in admissibility.scan_betas(
            sys, proj, ys, betas, rate, nu, one_sided_boundary(proj),
            n_samples=n_samples, seed=seed)]

    out = outcomes("dexp-1x1", [0.0, -2.0, 0.5])
    assert out[0] is None and out[2] is None
    assert isinstance(out[1], RepresentabilityError)
    assert str(out[1]).startswith("impulse at k*=6: its unit-norm scale 1/0.000e+00")
    out = outcomes("exp-2x1", [-720.0, 0.25], seed=1)
    assert isinstance(out[0], RepresentabilityError) and out[1] is None
    assert str(out[0]) == "solution at n=0 is beyond a double"
    out = outcomes("dexp-overflow", [0.1, -0.5])
    assert [str(e) for e in out] == ["coefficient at n=7 has log scale 1.88e+03; "
                                     "use the scaled interfaces for this system"] * 2
    sup = admissibility.operator_norm_sup

    def halved(sys, proj, rate, nu, beta):
        exact, arg = sup(sys, proj, rate, nu, beta)
        return (exact / 2.0 if beta == 0.0 else exact), arg

    monkeypatch.setattr(admissibility, "operator_norm_sup", halved)
    out = outcomes("exp-1x1", [0.3, 0.0], n_samples=2)
    assert out[0] is None and isinstance(out[1], OracleMismatchError)
    assert str(out[1]).startswith("beta=0: sampled lower bound")


#: largest difference, per index, between the top impulse's response combined
#: from the unit responses and a recursion of its own, relative to that
#: index's largest entry of |v| combined with the unit responses' magnitudes
TOP_RESPONSE_TOL = 16 * np.finfo(float).eps


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(set(SCAN_SYSTEMS) - {"dexp-overflow"})),
       beta=st.floats(-1.0, 1.0))
def test_combined_top_response_is_the_recursion_of_the_top_impulse(name, beta):
    kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS[name]
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                              domain=domain, rate_kind=kind)
    sys, proj = model.system, model.projections
    n0, d = sys.window[0], sys.dim
    _, (m_star, k_star) = admissibility.operator_norm_sup(sys, proj, rate, nu, beta)
    units = solver_kernel(sys, proj, k_star).transpose(0, 2, 1)
    _, _, vt = np.linalg.svd(units[m_star - n0].T)
    y = np.zeros((sys.window[1] - n0 + 1, d))
    y[k_star - n0] = vt[0]
    scale = norm(y, WeightedNormSpec(beta=beta, p=1), rate, nu)
    combined = (vt[:1] @ units / scale)[:, 0]
    fresh = admissibility._green_convolve(sys, proj, (y / scale)[:, None])[:, 0]
    bound = np.max((np.abs(vt[:1]) @ np.abs(units) / scale)[:, 0], axis=1)
    assert np.all(np.max(np.abs(combined - fresh), axis=1) <= TOP_RESPONSE_TOL * bound)


@pytest.mark.parametrize("ys", [0, 2])
def test_scan_makes_one_recursion_call(monkeypatch, ys):
    kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS["exp-2x1"]
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                              domain=domain, rate_kind=kind)
    sys, proj = model.system, model.projections
    calls = []
    convolve = admissibility._green_convolve

    def counted(*args):
        calls.append(args[2].shape[1])
        return convolve(*args)

    monkeypatch.setattr(admissibility, "_green_convolve", counted)
    out = admissibility.scan_betas(sys, proj, [random_input(sys, seed=j) for j in range(ys)],
                                   [0.25, -0.5], rate, nu, one_sided_boundary(proj),
                                   n_samples=3)
    assert not any(isinstance(o, Exception) for o in out)
    # per weight, its solve input, d = 3 unit impulses and 3 samples
    assert calls == [ys + 2 * (3 + 3)]


def test_scan_makes_one_sparse_solve(monkeypatch):
    # one factorization with a right-hand side per weight, not one per weight
    import scipy.sparse.linalg

    kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS["exp-2x1"]
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                              domain=domain, rate_kind=kind)
    sys, proj = model.system, model.projections
    calls = []
    spsolve = scipy.sparse.linalg.spsolve

    def counted(mat, rhs):
        calls.append(rhs.shape)
        return spsolve(mat, rhs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
    out = admissibility.scan_betas(sys, proj, [random_input(sys, seed=j) for j in range(3)],
                                   [0.25, -0.5, 0.0], rate, nu, one_sided_boundary(proj),
                                   n_samples=2)
    assert not any(isinstance(o, Exception) for o in out)
    assert len(calls) == 1 and calls[0][1:] == (3,)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(set(SCAN_SYSTEMS) - {"dexp-overflow"})),
       k=st.integers(1, 4), seed=st.integers(0, 50))
def test_stacked_oracle_is_the_per_input_oracle_bit_for_bit(name, k, seed):
    kind, domain, window, dims, cond, model_seed = SCAN_SYSTEMS[name]
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=cond, seed=model_seed,
                              domain=domain, rate_kind=kind)
    sys, proj = model.system, model.projections
    boundary = one_sided_boundary(proj) if domain == "one_sided" else two_sided_boundary()
    ys = np.stack([random_input(sys, seed=seed + j) for j in range(k)])
    got = oracle_solve(sys, proj, ys, boundary)
    assert got.shape == ys.shape
    for y, x in zip(ys, got):
        assert x.tobytes() == oracle_solve(sys, proj, y, boundary).tobytes()
    # a stack of references is checked column by column
    assert oracle_solve(sys, proj, ys, boundary, reference=got).tobytes() == got.tobytes()
    bad = got.copy()
    bad[k - 1, 3] += 1.0
    with pytest.raises(OracleMismatchError, match=rf"\d at n={sys.window[0] + 3}$"):
        oracle_solve(sys, proj, ys, boundary, reference=bad)


def test_scan_names_the_weight_and_index_of_an_oracle_mismatch(monkeypatch):
    # an oracle off at n = 7 in the second weight's column only
    oracle = admissibility.oracle_solve

    def off(*args):
        x = oracle(*args)
        x[1, 7] += 1.0
        return x

    monkeypatch.setattr(admissibility, "oracle_solve", off)
    model, rate, nu = planted((0, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=2)
    sys, proj = model.system, model.projections
    out = admissibility.scan_betas(sys, proj, [random_input(sys, seed=j) for j in range(2)],
                                   [0.25, -0.5], rate, nu, one_sided_boundary(proj))
    assert not isinstance(out[0], Exception)
    assert isinstance(out[1], OracleMismatchError)
    assert re.fullmatch(r"solver and oracle disagree: relative error \S+ at beta=-0\.5, n=7",
                        str(out[1]))


def test_a_refused_stacked_oracle_fails_only_the_weights_it_fails_alone(monkeypatch):
    # the stack is refused; each weight then solves its own input, and only
    # the second weight's own solve is refused
    oracle = admissibility.oracle_solve
    model, rate, nu = planted((0, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=2)
    sys, proj = model.system, model.projections
    ys = [random_input(sys, seed=j) for j in range(3)]

    def refusing(sys, proj, y, boundary):
        if np.ndim(y) == 3 or np.array_equal(y, ys[1]):
            raise admissibility.SplittingDegenerateError("boundary value system is singular")
        return oracle(sys, proj, y, boundary)

    monkeypatch.setattr(admissibility, "oracle_solve", refusing)
    out = admissibility.scan_betas(sys, proj, ys, [0.25, -0.5, 0.0], rate, nu,
                                   one_sided_boundary(proj))
    assert [type(o).__name__ for o in out] == ["tuple", "SplittingDegenerateError", "tuple"]
    want = [sequential_point(sys, proj, y, b, rate, nu, one_sided_boundary(proj), 6, 0)
            for y, b in ((ys[0], 0.25), (ys[2], 0.0))]
    assert [o[0].solution.tobytes() for o in out[::2]] == [w[0].solution.tobytes() for w in want]


# ------------------------------------------------------------------ uniqueness


def test_uniqueness_plausible_on_planted_expansion():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (1, 1), cond=3.0, seed=6)
    z = model.projections.kernel_basis(0)
    out = uniqueness_probe(model.system, model.projections, rate, nu, 0.0, z)
    assert out["verdict"] == "uniqueness plausible"
    assert out["slopes"][0] == pytest.approx(1.0, abs=1e-6)
    assert out["margin"] == pytest.approx(0.5, abs=1e-6)


def test_uniqueness_vacuous_for_zero_subspace():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (2, 0))
    z = np.zeros((2, 0))
    out = uniqueness_probe(model.system, model.projections, rate, nu, 0.0, z)
    assert out["verdict"] == "vacuously unique"


def test_uniqueness_inconclusive_without_growth():
    rate = make_rate("exponential", "one_sided", (0, 10))
    nu = make_nu("uniform", rate)
    sys = LinearSystem.from_matrices(np.stack([np.eye(1)] * 10), "one_sided",
                                     (0, 10))
    p = np.stack([np.eye(1)] * 11)
    proj = ProjectionFamily(window=(0, 10), projections=p, stable_rank=1)
    out = uniqueness_probe(sys, proj, rate, nu, 0.0, np.eye(1))
    assert out["verdict"] == "inconclusive"
    assert out["margin"] == math.inf


def test_uniqueness_explicit_margin():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1))
    z = model.projections.kernel_basis(0)
    out = uniqueness_probe(model.system, model.projections, rate, nu, 0.0, z)
    cert = fit_certificate(model.system, model.projections, rate, nu)
    assert out["margin"] == max(0.0, (cert.lam - cert.eps) / 2.0) > 0.0
    assert all(s >= out["margin"] for s in out["slopes"])
    assert out["verdict"] == "uniqueness plausible"
    with pytest.raises(ConfigError):
        uniqueness_probe(model.system, model.projections, rate, nu, 0.0,
                         np.zeros((3,)))


# ------------------------------------------------------------------ alignment


@pytest.mark.parametrize("entry", ["solve_admissibility", "scan_betas", "oracle_solve",
                                   "operator_norm_T", "verify_dichotomy", "smallness_margin",
                                   "uniqueness_probe"])
def test_every_entry_refuses_a_family_of_another_dimension(entry):
    # a (2, 1) family on a (1, 1) system and its window: one check, before any numpy call
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1), cond=2.0, seed=1)
    sys, proj = model.system, planted((0, 10), 1.0, 1.0, (2, 1), cond=2.0, seed=1)[0].projections
    y, boundary = random_input(sys, seed=0), one_sided_boundary(proj)
    calls = {
        "solve_admissibility": lambda: solve_admissibility(sys, proj, y, 0.0, rate, nu, boundary),
        "scan_betas": lambda: admissibility.scan_betas(sys, proj, [y], [0.0], rate, nu, boundary),
        "oracle_solve": lambda: oracle_solve(sys, proj, y, boundary),
        "operator_norm_T": lambda: operator_norm_T(sys, proj, rate, nu, 0.0),
        "verify_dichotomy": lambda: verify_dichotomy(sys, proj, rate, nu, 2.0, 1.0),
        "smallness_margin": lambda: smallness_margin(
            sys, proj, rate, nu, PerturbationSpec(gamma=geometric_gamma(sys.window), c=0.1)),
        "uniqueness_probe": lambda: uniqueness_probe(sys, proj, rate, nu, 0.0,
                                                     proj.kernel_basis(0)),
    }
    with pytest.raises(ConfigError, match=r"^ProjectionFamily dimension 3 differs "
                                          r"from LinearSystem dimension 2$"):
        calls[entry]()
