"""Budgeted perturbations, graph norms, and the persistence verdicts.

The per-step budget radii are recomputed here with raw scalar arithmetic,
and the operator norm behind the margin is cross-checked against the dense
pairwise assembly, so the log-domain implementations are never graded
against themselves.
"""

import math

import numpy as np
import pytest

import dicholab.robustness as robustness
import dicholab.splitting as splitting
from dicholab import (
    ConfigError,
    PerturbationSpec,
    fit_certificate,
    geometric_gamma,
    make_nu,
    make_perturbation,
    make_rate,
    one_sided_boundary,
    perturbation_radii,
    perturbed_system,
    smallness_margin,
    solve_admissibility,
    spectral_norm,
    verify_persistence,
)
from dicholab.linalg import haar_orthogonal

from helpers import (
    GraphNormOperator,
    apply_graph_operator,
    dense_operator_norm,
    graph_norm,
    planted,
    random_input,
    subspace_gap,
)


# ---------------------------------------------------------------- budget radii


def test_geometric_gamma_values():
    g = geometric_gamma((0, 5), ratio=0.5)
    assert np.array_equal(g, [1.0, 0.5, 0.25, 0.125, 0.0625])
    with pytest.raises(ConfigError):
        geometric_gamma((0, 5), ratio=1.0)
    with pytest.raises(ConfigError):
        geometric_gamma((0, 5), ratio=0.0)


def test_perturbation_spec_validation():
    with pytest.raises(ConfigError):
        PerturbationSpec(gamma=np.zeros(0))
    with pytest.raises(ConfigError):
        PerturbationSpec(gamma=np.array([1.0, -0.5]))
    with pytest.raises(ConfigError):
        PerturbationSpec(gamma=np.ones(3), c=-0.1)
    with pytest.raises(ConfigError):
        PerturbationSpec(gamma=np.ones(3), beta=math.nan)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 10)))
    assert spec.gamma_sum == pytest.approx(2.0 - 2.0 ** -9)


def test_radii_match_scalar_formula():
    rate = make_rate("exponential", "one_sided", (0, 10))
    nu = make_nu("power", rate, epsilon=0.1)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 10)), c=0.1, beta=0.3)
    rho = perturbation_radii(rate, nu, spec)
    for i in range(10):
        want = (0.1 * 0.5 ** i
                * math.exp(0.3 * rate.log_at(i)) / math.exp(nu.log_at(i + 1))
                / math.exp(0.3 * rate.log_at(i + 1)))
        assert rho[i] == pytest.approx(want, rel=1e-14)


def test_radii_zero_amplitude_and_length_check():
    rate = make_rate("exponential", "one_sided", (0, 6))
    nu = make_nu("uniform", rate)
    spec = PerturbationSpec(gamma=np.ones(6), c=0.0)
    assert np.array_equal(perturbation_radii(rate, nu, spec), np.zeros(6))
    with pytest.raises(ConfigError):
        perturbation_radii(rate, nu, PerturbationSpec(gamma=np.ones(4)))


def test_generated_perturbation_saturates_budget():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (2, 2), cond=3.0, seed=2)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 30)), c=0.2, seed=5,
                            beta=0.1)
    rho = perturbation_radii(rate, nu, spec)
    b = make_perturbation(model.system, rate, nu, spec)
    for i in range(30):
        assert spectral_norm(b[i]) == pytest.approx(rho[i], rel=1e-12)


def test_perturbation_is_seed_deterministic():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1))
    spec = PerturbationSpec(gamma=geometric_gamma((0, 10)), c=0.1, seed=3)
    b1 = make_perturbation(model.system, rate, nu, spec)
    b2 = make_perturbation(model.system, rate, nu, spec)
    assert np.array_equal(b1, b2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("domain,window", [("one_sided", (0, 12)), ("two_sided", (-6, 6))])
def test_stacked_perturbation_equals_the_per_index_build(d, domain, window):
    model, rate, nu = planted(window, 1.0, 1.0, (d - d // 2, d // 2), cond=2.0,
                              seed=1, domain=domain)
    spec = PerturbationSpec(gamma=geometric_gamma(window), c=0.3, seed=7, beta=0.1)
    rho = perturbation_radii(rate, nu, spec)
    # one Haar factor per index from its own generator, negative n wrapped
    want = np.stack([rho[i] * haar_orthogonal(np.random.default_rng(
        [7, robustness.PERT_STREAM, (window[0] + i) % 2**32]), d) for i in range(rho.size)])
    assert np.array_equal(make_perturbation(model.system, rate, nu, spec), want)
    zero = PerturbationSpec(gamma=geometric_gamma(window), c=0.0, seed=7)
    assert np.array_equal(make_perturbation(model.system, rate, nu, zero),
                          np.zeros((rho.size, d, d)))


def test_perturbation_beta_checked_against_certificate():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1))
    cert = fit_certificate(model.system, model.projections, rate, nu)
    good = PerturbationSpec(gamma=geometric_gamma((0, 20)), c=0.1, beta=0.5)
    make_perturbation(model.system, rate, nu, good, certificate=cert)
    bad = PerturbationSpec(gamma=geometric_gamma((0, 20)), c=0.1, beta=1.5)
    with pytest.raises(ConfigError):
        make_perturbation(model.system, rate, nu, bad, certificate=cert)


# ------------------------------------------------------------ perturbed system


def test_perturbed_system_reconstructs_sum():
    model, rate, nu = planted((0, 15), 0.8, 1.2, (2, 1), cond=4.0, seed=1)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 15)), c=0.3, seed=2)
    b = make_perturbation(model.system, rate, nu, spec)
    pert = perturbed_system(model.system, b)
    for n in range(15):
        want = model.system.matrix(n) + b[n]
        assert np.allclose(pert.matrix(n), want,
                           rtol=1e-14, atol=1e-16 * spectral_norm(want))


def test_perturbed_system_extreme_scales():
    from dicholab import LinearSystem

    sys = LinearSystem.from_scaled([800.0, -800.0], np.stack([np.eye(2)] * 2),
                                   "one_sided", (0, 2))
    pert = perturbed_system(sys, np.zeros((2, 2, 2)))
    assert np.allclose(pert.log_scales, [800.0, -800.0])
    # a modest perturbation of an astronomically small step dominates it
    b = np.zeros((2, 2, 2))
    b[1] = np.diag([2.0, 2.0])
    pert = perturbed_system(sys, b)
    assert pert.log_scales[1] == pytest.approx(math.log(2.0), abs=1e-12)


def per_step_perturbed(sys, b):
    """(log scales, unit matrices) of A_n + B_n with one spectral_norm call
    per B_n and per core: the loop the batched norms replace."""
    mats, ls = np.zeros_like(sys.mats), np.full(len(b), -math.inf)
    for i in range(len(b)):
        la = float(sys.log_scales[i])
        nb = spectral_norm(b[i])
        lb = math.log(nb) if nb > 0.0 else -math.inf
        pivot = max(la, lb)
        if pivot == -math.inf:
            continue
        core = np.zeros_like(b[i])
        if la > -math.inf:
            core += math.exp(la - pivot) * sys.mats[i]
        if lb > -math.inf:
            core += math.exp(lb - pivot) * (b[i] / nb)
        s = spectral_norm(core)
        if s > 0.0:
            mats[i], ls[i] = core / s, pivot + math.log(s)
    return ls, mats


@pytest.mark.parametrize("dims", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_perturbed_system_equals_the_per_step_assembly(dims):
    from dicholab import LinearSystem

    model, rate, nu = planted((0, 40), 0.8, 1.2, dims, cond=3.0, seed=4)
    rng = np.random.default_rng(9)
    d = sum(dims)
    ls = model.system.log_scales.copy()
    ls[::7] = rng.uniform(-600.0, 600.0, ls[::7].size)
    ls[3] = -math.inf
    sys = LinearSystem.from_scaled(ls, model.system.mats, "one_sided", (0, 40))
    b = rng.standard_normal((40, d, d)) * 10.0 ** rng.uniform(-300, 300, 40)[:, None, None]
    b[[3, 5]] = 0.0
    b[6] = -math.exp(ls[6]) * sys.mats[6]    # cancels A_6 up to rounding
    pert = perturbed_system(sys, b)
    want_ls, want_mats = per_step_perturbed(sys, b)
    assert np.array_equal(pert.log_scales, want_ls)
    assert np.array_equal(pert.mats, want_mats)


def test_perturbed_system_validation():
    model, _, _ = planted((0, 5), 1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        perturbed_system(model.system, np.zeros((4, 2, 2)))
    bad = np.zeros((5, 2, 2))
    bad[0, 0, 0] = math.inf
    with pytest.raises(ConfigError):
        perturbed_system(model.system, bad)


# -------------------------------------------------------------- graph operator


def test_graph_operator_annihilates_homogeneous_orbits():
    model, rate, nu = planted((0, 12), 0.5, 0.7, (2, 1), cond=3.0, seed=6)
    sys = model.system
    x = np.empty((13, 3))
    x[0] = [1.0, -0.5, 0.25]
    for n in range(12):
        x[n + 1] = sys.matrix(n) @ x[n]
    op = GraphNormOperator(sys=sys, rate=rate, nu=nu, beta=0.0, mode="A_beta")
    out = apply_graph_operator(op, x)
    assert np.max(np.abs(out)) <= 1e-10 * np.max(np.abs(x))


def test_graph_operator_impulse():
    model, rate, nu = planted((0, 6), 1.0, 1.0, (1, 1), cond=2.0, seed=3)
    sys = model.system
    v = np.array([0.4, -1.2])
    x = np.zeros((7, 2))
    x[0] = v
    op = GraphNormOperator(sys=sys, rate=rate, nu=nu, beta=0.0, mode="A_beta")
    out = apply_graph_operator(op, x)
    assert np.array_equal(out[0], np.zeros(2))
    assert np.allclose(out[1], -(sys.matrix(0) @ v), rtol=1e-14)
    assert np.array_equal(out[2:], np.zeros((5, 2)))


def test_graph_operator_perturbation_mode():
    model, rate, nu = planted((0, 8), 1.0, 1.0, (1, 1))
    spec = PerturbationSpec(gamma=geometric_gamma((0, 8)), c=0.2, seed=1)
    b = make_perturbation(model.system, rate, nu, spec)
    x = np.arange(18, dtype=float).reshape(9, 2)
    op = GraphNormOperator(sys=model.system, rate=rate, nu=nu, beta=0.0,
                           mode="B_beta", b=b)
    out = apply_graph_operator(op, x)
    for n in range(1, 9):
        assert np.allclose(out[n], b[n - 1] @ x[n - 1], rtol=1e-15)
    with pytest.raises(ConfigError):
        GraphNormOperator(sys=model.system, rate=rate, nu=nu, beta=0.0,
                          mode="B_beta")


def test_graph_operator_solver_roundtrip():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (2, 2), cond=5.0, seed=7)
    sys, proj = model.system, model.projections
    y = random_input(sys, seed=9)
    rep = solve_admissibility(sys, proj, y, 0.0, rate, nu,
                              one_sided_boundary(proj))
    op = GraphNormOperator(sys=sys, rate=rate, nu=nu, beta=0.0, mode="A_beta")
    out = apply_graph_operator(op, rep.solution)
    assert np.max(np.abs(out - y)) <= 1e-8 * max(1.0, np.max(np.abs(y)))


def test_graph_norm_values():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1), cond=2.0, seed=4)
    sys = model.system
    assert graph_norm(np.zeros((11, 2)), sys, rate, nu, 0.3) == 0.0
    # homogeneous orbit: the difference part vanishes, only the sup remains
    x = np.empty((11, 2))
    x[0] = [0.7, 0.1]
    for n in range(10):
        x[n + 1] = sys.matrix(n) @ x[n]
    from dicholab import WeightedNormSpec, norm

    sup = norm(x, WeightedNormSpec(beta=0.25, p=math.inf), rate)
    got = graph_norm(x, sys, rate, nu, 0.25)
    assert got == pytest.approx(sup, rel=1e-10)


def test_graph_norm_scalar_impulse_closed_form():
    # x = delta_0 * v on a scalar system: sup part |v|, difference part |a v|
    from dicholab import LinearSystem

    a = 1.7
    sys = LinearSystem.from_matrices(np.full((4, 1, 1), a), "one_sided", (0, 4))
    rate = make_rate("exponential", "one_sided", (0, 4))
    nu = make_nu("uniform", rate)
    v = 0.6
    x = np.zeros((5, 1))
    x[0, 0] = v
    assert graph_norm(x, sys, rate, nu, 0.0) == pytest.approx(
        v + a * v, rel=1e-14)


# ----------------------------------------------------------- smallness margin


def test_margin_zero_amplitude():
    model, rate, nu = planted((0, 10), 1.0, 1.0, (1, 1))
    spec = PerturbationSpec(gamma=geometric_gamma((0, 10)), c=0.0)
    assert smallness_margin(model.system, model.projections, rate, nu, 0.0,
                            spec) == 0.0


def test_margin_formula_against_dense_norm():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1), cond=4.0, seed=2)
    sys, proj = model.system, model.projections
    spec = PerturbationSpec(gamma=geometric_gamma((0, 20)), c=0.1, beta=0.2)
    got = smallness_margin(sys, proj, rate, nu, 0.2, spec)
    t_dense = dense_operator_norm(sys, proj, rate, nu, 0.2)
    cs = 0.1 * spec.gamma_sum
    assert got == pytest.approx(cs * t_dense * (1.0 + cs), rel=1e-10)


def test_margin_amplitude_scaling():
    model, rate, nu = planted((0, 25), 1.0, 1.0, (2, 1), cond=3.0, seed=8)
    sys, proj = model.system, model.projections
    g = geometric_gamma((0, 25))
    s = float(np.sum(g))
    m1 = smallness_margin(sys, proj, rate, nu, 0.0,
                          PerturbationSpec(gamma=g, c=0.1))
    m2 = smallness_margin(sys, proj, rate, nu, 0.0,
                          PerturbationSpec(gamma=g, c=0.2))
    # m(c) = c s T (1 + c s): the quadratic correction is the only nonlinearity
    want = m1 * 2.0 * (1.0 + 0.2 * s) / (1.0 + 0.1 * s)
    assert m2 == pytest.approx(want, rel=1e-12)
    assert m2 > m1


def test_margin_accepts_trimmed_projection_window():
    # characterize hands back the system, rate and weights on the family's
    # trimmed window; the untrimmed ones no longer line up with the family
    from dicholab import characterize

    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=2.0, seed=1)
    res = characterize(model.system, rate, nu)
    assert res.projections.window != model.system.window
    assert res.system.window == res.rate.window == res.nu.window == res.projections.window
    spec = PerturbationSpec(gamma=geometric_gamma((0, 40)), c=0.05)
    m = smallness_margin(res.system, res.projections, res.rate, res.nu, 0.0, spec)
    assert math.isfinite(m) and m > 0.0
    with pytest.raises(ConfigError):
        smallness_margin(model.system, res.projections, rate, nu, 0.0, spec)


def test_dense_norm_window_limit():
    model, rate, nu = planted((0, 80), 1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        dense_operator_norm(model.system, model.projections, rate, nu, 0.0)


# ------------------------------------------------------------------ persistence


def test_persistence_zero_perturbation_is_identity():
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=3.0, seed=0)
    rep = verify_persistence(model.system, np.zeros((40, 2, 2)), rate, nu)
    assert rep.verdict == "persisted"
    assert rep.max_drift <= 1e-12
    base, pert = rep.base_certificate, rep.pert_certificate
    assert pert.lam == pytest.approx(base.lam, rel=1e-12)
    assert pert.D == pytest.approx(base.D, rel=1e-12)
    assert math.isnan(rep.margin)  # no spec given


def test_persistence_small_margin_grid():
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=3.0, seed=0)
    hint = model.projections.kernel_basis(0)
    for c in (0.01, 0.05, 0.2):
        spec = PerturbationSpec(gamma=geometric_gamma((0, 40)), c=c, seed=1)
        b = make_perturbation(model.system, rate, nu, spec)
        rep = verify_persistence(model.system, b, rate, nu, spec=spec,
                                 boundary_hint=hint)
        assert rep.margin < 1.0
        assert rep.verdict == "persisted"
        # geometry drift is first order in the amplitude
        assert rep.max_drift <= c
        assert rep.c == c
        assert rep.seed == 1


def test_persistence_two_sided():
    model, rate, nu = planted((-15, 15), 1.0, 1.0, (1, 1), cond=2.0, seed=4,
                              domain="two_sided")
    spec = PerturbationSpec(gamma=geometric_gamma((-15, 15)), c=0.02, seed=2)
    b = make_perturbation(model.system, rate, nu, spec)
    rep = verify_persistence(model.system, b, rate, nu, spec=spec)
    assert rep.verdict == "persisted"
    assert rep.margin < 1.0
    assert rep.max_drift <= 0.05


def test_persistence_cancelled_step_fails_cleanly():
    # zeroing one coefficient removes the backward invertibility the
    # splitting needs; the report carries the stage failure, nothing raises
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=3.0, seed=0)
    b = np.zeros((40, 2, 2))
    b[10] = -model.system.matrix(10)
    rep = verify_persistence(model.system, b, rate, nu,
                             boundary_hint=model.projections.kernel_basis(0))
    assert rep.verdict == "not_persisted"
    assert rep.failure is not None
    assert rep.failure.startswith("[stage ")
    assert rep.pert_certificate is None


def test_persistence_flooded_gap_collapses():
    # a perturbation far above the budget erases the contraction; the
    # verdict reports the collapsed gap instead of crashing
    model, rate, nu = planted((0, 40), 1.0, 1.0, (1, 1), cond=3.0, seed=0)
    b = np.stack([10.0 * np.eye(2)] * 40)
    rep = verify_persistence(model.system, b, rate, nu,
                             boundary_hint=model.projections.kernel_basis(0))
    assert rep.verdict == "not_persisted"
    assert rep.failure is not None


def test_persistence_report_serialization():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1), cond=2.0, seed=5)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 20)), c=0.05, seed=9)
    b = make_perturbation(model.system, rate, nu, spec)
    rep = verify_persistence(model.system, b, rate, nu, spec=spec)
    doc = rep.to_json()
    assert doc["verdict"] == "persisted"
    assert doc["base_certificate"]["lambda"] == rep.base_certificate.lam
    assert doc["seed"] == 9
    assert len(doc["drift"]) == rep.drift.size


def test_persistence_with_precomputed_base_is_identical():
    from dicholab import characterize

    model, rate, nu = planted((0, 40), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    hint = model.kernel_basis_at_start
    spec = PerturbationSpec(gamma=geometric_gamma((0, 40)), c=0.1, seed=4, beta=0.1)
    b = make_perturbation(model.system, rate, nu, spec)
    fresh = verify_persistence(model.system, b, rate, nu, spec=spec, boundary_hint=hint)
    base = characterize(model.system, rate, nu, boundary_hint=hint)
    shared = verify_persistence(model.system, b, rate, nu, spec=spec,
                                boundary_hint=hint, base=base)
    assert shared.to_json() == fresh.to_json()

    other, o_rate, o_nu = planted((0, 30), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    o_spec = PerturbationSpec(gamma=geometric_gamma((0, 30)), c=0.1, seed=4)
    o_b = make_perturbation(other.system, o_rate, o_nu, o_spec)
    with pytest.raises(ConfigError, match="another window"):
        verify_persistence(other.system, o_b, o_rate, o_nu, spec=o_spec, base=base)


def test_persistence_takes_its_drift_in_two_calls(monkeypatch):
    from dicholab import characterize

    model, rate, nu = planted((0, 40), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    hint = model.kernel_basis_at_start
    base = characterize(model.system, rate, nu, boundary_hint=hint)
    spec = PerturbationSpec(gamma=geometric_gamma((0, 40)), c=0.1, seed=4)
    b = make_perturbation(model.system, rate, nu, spec)
    calls = {"drift": 0, "characterize": 0}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(robustness, "max_principal_angle", "drift")
    spy(splitting, "principal_angles", "characterize")
    rep = verify_persistence(model.system, b, rate, nu, spec=spec,
                             boundary_hint=hint, base=base)
    # ranges and kernels, one stacked call each; the perturbed system's own
    # characterize takes its angles once
    assert calls == {"drift": 2, "characterize": 1}
    monkeypatch.undo()
    pert = characterize(robustness.perturbed_system(model.system, b), rate, nu,
                        boundary_hint=hint).projections
    for i, n in enumerate(range(rep.window[0], rep.window[1] + 1)):
        want = max(subspace_gap(base.projections.range_basis(n), pert.range_basis(n)),
                   subspace_gap(base.projections.kernel_basis(n), pert.kernel_basis(n)))
        assert rep.drift[i] == want
