"""Exponent classification, subspace recovery, and the characterize pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dicholab import (
    AnalysisError,
    ConfigError,
    KernelSingularError,
    LinearSystem,
    NoGapError,
    PerturbationSpec,
    SplittingDegenerateError,
    build_projections,
    characterize,
    classify_directions,
    geometric_gamma,
    make_nu,
    make_perturbation,
    make_rate,
    operator_norm_sup,
    perturbed_system,
    s_beta_zero_check,
    spectral_norm,
    verify_dichotomy,
)
import dicholab.dichotomy as dichotomy
import dicholab.splitting as splitting
from dicholab.dichotomy import fit_certificate, stable_slack_grid, unstable_slack_grid
from dicholab.linalg import exp_or_inf
from dicholab.splitting import _pinned_gap, _split_exponents

from helpers import (
    ANGLE_ULP_TOL,
    oracle_green_diagonal,
    planted,
    reference_angles,
    reference_green_log_sup,
    reference_preimage_chain,
    reference_projections,
    reference_propagate_forward,
    reference_reduce_frame,
    solver_kernel,
    subspace_gap,
)


def constant_diag(entries, window, domain="one_sided"):
    w = window[1] - window[0]
    mats = np.stack([np.diag(entries)] * w)
    sys = LinearSystem.from_matrices(mats, domain, window)
    rate = make_rate("exponential", domain, window)
    nu = make_nu("uniform", rate)
    return sys, rate, nu


# -------------------------------------------------------------- classification


def test_classify_planted_two_block():
    sys, rate, _ = constant_diag([math.exp(-1.0), math.e], (0, 20))
    rho, vecs = classify_directions(sys, 0, rate)
    assert rho == pytest.approx([1.0, -1.0], abs=1e-12)
    assert abs(vecs[1, 0]) == pytest.approx(1.0)
    assert abs(vecs[0, 1]) == pytest.approx(1.0)


def test_classify_survives_underflowing_window():
    # over 80 exponential steps the slow singular value of the raw product
    # is ~e^-240 below the top one; the trailing-block sweep still measures
    # the stable exponent exactly
    model, rate, _ = planted((0, 80), 2.0, 1.0, (1, 1))
    rho, _ = classify_directions(model.system, 0, rate)
    assert rho == pytest.approx([1.0, -2.0], abs=1e-6)


def test_classify_conjugated_model():
    model, rate, _ = planted((0, 60), 1.0, 1.0, (2, 2), cond=10.0, seed=3)
    rho, _ = classify_directions(model.system, 0, rate)
    assert rho[:2] == pytest.approx([1.0, 1.0], abs=0.05)
    assert rho[2:] == pytest.approx([-1.0, -1.0], abs=0.05)


def test_classify_anchor_validation():
    sys, rate, _ = constant_diag([0.5], (0, 5))
    with pytest.raises(ConfigError):
        classify_directions(sys, 5, rate)  # no forward extent
    with pytest.raises(ConfigError):
        classify_directions(sys, -1, rate)


# ------------------------------------------------------------- splitting rules


def test_split_explicit_cutoff():
    n_u, gap, cut = _split_exponents(np.array([1.0, -1.0]), 0.2, 0.0)
    assert (n_u, gap, cut) == (1, 2.0, 0.0)
    with pytest.raises(NoGapError):
        _split_exponents(np.array([0.55, -1.0]), 0.2, 0.5)


def test_split_auto_picks_gap_straddling_zero():
    n_u, gap, cut = _split_exponents(np.array([1.0, -1.0, -3.0]), 0.2, None)
    assert n_u == 1
    assert gap == pytest.approx(2.0)
    assert cut == pytest.approx(0.0)


def test_split_single_cluster_by_sign():
    n_u, gap, _ = _split_exponents(np.array([-0.5, -1.0]), 0.2, None)
    assert n_u == 0
    assert gap == pytest.approx(1.0)  # twice the distance to zero
    n_u, _, _ = _split_exponents(np.array([3.0, 1.0]), 0.2, None)
    assert n_u == 2


def test_split_rejects_cluster_hugging_zero():
    # mixed signs with a sub-threshold gap cannot be split or signed
    with pytest.raises(NoGapError):
        _split_exponents(np.array([0.05, -0.1]), 0.2, None)
    with pytest.raises(NoGapError):
        _split_exponents(np.array([0.0, 0.0]), 0.2, None)


@pytest.mark.filterwarnings("error")
def test_split_equal_infinite_exponents_have_zero_gap():
    # a doubly-exponential window drives whole clusters to -inf; the gap
    # inside such a cluster is 0, not inf - inf
    inf = math.inf
    n_u, gap, cut = _split_exponents(np.array([0.05, 0.05, -inf, -inf]), 0.1, None)
    assert (n_u, gap, cut) == (2, inf, -inf)
    with pytest.raises(NoGapError):
        _pinned_gap(np.array([inf, inf]), 1, 0.2)
    with pytest.raises(NoGapError):
        _pinned_gap(np.array([-inf, -inf]), 1, 0.2)


def test_pinned_gap():
    rho = np.array([1.0, -1.0])
    assert _pinned_gap(rho, 1, 0.2) == pytest.approx(2.0)
    assert _pinned_gap(rho, 0, 0.2) == math.inf
    assert _pinned_gap(rho, 2, 0.2) == math.inf
    with pytest.raises(NoGapError):
        _pinned_gap(np.array([0.1, 0.0]), 1, 0.2)


# ------------------------------------------------------------------- subspaces


def stable_split(sys, rate, cutoff=None):
    """(basis, exponents, gap) of the stable part at the window start: one
    classification, split the way characterize and s_beta_zero_check do."""
    rho, vecs = classify_directions(sys, sys.window[0], rate)
    n_u, gap, _ = _split_exponents(rho, splitting.GAP_THRESHOLD, cutoff)
    return vecs[:, n_u:], rho[n_u:], gap


def test_stable_split_planted_direction():
    sys, rate, nu = constant_diag([math.exp(-1.0), math.e], (0, 20))
    basis, rho, gap = stable_split(sys, rate)
    assert basis.shape == (2, 1)
    assert subspace_gap(basis, np.eye(2)[:, :1]) <= 1e-8
    assert gap == pytest.approx(2.0, abs=1e-10)
    assert rho == pytest.approx([-1.0], abs=1e-10)
    # characterize recovers the same direction at the window start
    res = characterize(sys, rate, nu)
    assert subspace_gap(res.splitting.stable_bases[0], basis) <= 1e-8


def test_stable_split_identity_has_no_gap():
    sys, rate, nu = constant_diag([1.0, 1.0], (0, 8))
    with pytest.raises(NoGapError):
        stable_split(sys, rate)
    with pytest.raises(NoGapError, match=r"^\[stage stable_subspace\]"):
        characterize(sys, rate, nu)


def test_stable_split_scalar_single_cluster():
    model, rate, _ = planted((0, 20), 0.5, 1.0, (1, 0))
    basis, rho, _ = stable_split(model.system, rate)
    assert basis.shape == (1, 1)
    assert rho == pytest.approx([-0.5], abs=1e-10)


def test_characterize_unstable_bases_follow_the_planted_kernel():
    model, rate, nu = planted((0, 25), 1.0, 1.0, (2, 2), cond=8.0, seed=5)
    res = characterize(model.system, rate, nu,
                       boundary_hint=model.projections.kernel_basis(0))
    n0, n1 = res.splitting.window
    for n in (n0, 7, n1):
        want = model.projections.kernel_basis(n)
        assert subspace_gap(res.splitting.unstable_bases[n - n0], want) <= 1e-8


def test_characterize_zero_hint_gives_empty_unstable_bases():
    model, rate, nu = planted((0, 10), 0.5, 1.0, (2, 0))
    res = characterize(model.system, rate, nu, boundary_hint=np.zeros((2, 0)))
    assert res.splitting.unstable_bases.shape[2] == 0


def test_characterize_two_sided_diagonal_unstable_bases():
    sys, rate, nu = constant_diag([0.5, 2.0], (-10, 10), domain="two_sided")
    res = characterize(sys, rate, nu)
    assert res.splitting.unstable_bases.shape[2] == 1
    for basis in res.splitting.unstable_bases:
        assert subspace_gap(basis, np.eye(2)[:, 1:]) <= 1e-8
    assert res.splitting.gap == pytest.approx(2 * math.log(2.0), abs=1e-10)


def test_characterize_refuses_an_unstable_hint_that_loses_rank():
    mats = np.stack([np.diag([1.0, 0.0])] * 5)
    sys = LinearSystem.from_matrices(mats, "one_sided", (0, 5))
    rate = make_rate("exponential", "one_sided", (0, 5))
    with pytest.raises(KernelSingularError, match=r"^\[stage unstable_subspace\]"):
        characterize(sys, rate, make_nu("uniform", rate), boundary_hint=np.eye(2)[:, 1:])


def test_characterize_unstable_start_is_the_fast_cluster():
    sys, rate, nu = constant_diag([math.exp(-1.0), math.e], (0, 20))
    res = characterize(sys, rate, nu)
    assert res.splitting.unstable_bases[0].shape == (2, 1)
    assert subspace_gap(res.splitting.unstable_bases[0], np.eye(2)[:, 1:]) <= 1e-8


# ---------------------------------------------------------------- QR frames


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _same_stack(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


def _frame_cases():
    """(system, d_u) over planted dims up to (3, 3), one- and two-sided,
    and a system whose every step is minus a rotation."""
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3)):
        for window, domain in (((0, 24), "one_sided"), ((-12, 12), "two_sided")):
            model, _, _ = planted(window, 0.8, 1.1, dims, cond=4.0, seed=sum(dims),
                                  domain=domain)
            yield model.system, dims[1]
    c, s = math.cos(0.3), math.sin(0.3)
    flip = -np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    yield LinearSystem.from_matrices(np.stack([flip] * 12), "one_sided", (0, 12)), 2


def _negative_pivots(sys, basis):
    """Negative pivots of LAPACK's factor in the first step's QR, which the
    sign rule must flip."""
    return int(np.sum(np.diag(np.linalg.qr(sys.mats[0] @ basis)[1]) < 0.0))


def _forward_frames(sys, basis):
    """The unstable chain over the whole window as characterize runs it: the
    moving frames of the steps, then the rank test of their R blocks."""
    qs, rs = splitting._frames(sys.mats, basis)
    splitting._check_rank(rs, sys.window[0])
    return qs


def test_forward_frames_match_the_per_step_qr_loop():
    negative = 0
    for sys, d_u in _frame_cases():
        rng = np.random.default_rng(sys.dim + d_u)
        basis = splitting.qr_pos(rng.standard_normal((sys.dim, d_u)))[0]
        got = _forward_frames(sys, basis)
        want = reference_propagate_forward(sys, basis, *sys.window)
        assert _same_stack(got, want)
        negative += _negative_pivots(sys, basis)
    assert negative >= 10


def test_reduce_frame_matches_the_per_step_qr_loop():
    negative = 0
    for sys, _ in _frame_cases():
        frame = splitting.qr_pos(np.random.default_rng(sys.dim).standard_normal(
            (sys.dim, sys.dim)))[0]
        for k in range(1, sys.dim):
            got = splitting._reduce_frame(sys.mats, sys.log_scales, frame, k)
            want = reference_reduce_frame(sys.mats, sys.log_scales, frame, k)
            assert all(_same_stack(g, w) for g, w in zip(got, want))
        negative += _negative_pivots(sys, frame)
    assert negative >= 10


def test_stacked_frames_equal_one_call_per_slot():
    # characterize's (W, 2, d, d) stack of both chains, here with three
    # slots, steps scaled by 1e+-150 and a zero step (zero pivots) in one slot
    rng = np.random.default_rng(9)
    for d in range(1, 7):
        steps = rng.standard_normal((12, 3, d, d)) * 10.0 ** rng.choice([-150.0, 0.0, 150.0],
                                                                       (12, 3, 1, 1))
        steps[4, 1] = 0.0
        for k in range(1, d + 1):
            q = rng.standard_normal((3, d, k))
            for lo in range(k + 1):
                qs, rs = splitting._frames(steps, q, lo)
                for i in range(3):
                    want = splitting._frames(np.ascontiguousarray(steps[:, i]), q[i], lo)
                    assert _same_stack(qs[:, i], want[0]) and _same_stack(rs[:, i], want[1])


@pytest.mark.parametrize("step", [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 1e-13]),
                                  np.zeros((3, 3))], ids=["0.0", "1e-13", "zero"])
def test_forward_frames_lose_rank_where_the_per_step_loop_does(step):
    # LinearSystem zeroes a zero step's matrix under a -inf log scale
    mats = np.stack([np.diag([0.5, 2.0, 3.0])] * 10)
    mats[6] = step
    sys = LinearSystem.from_matrices(mats, "two_sided", (-3, 7))
    basis = np.eye(3)[:, 1:]
    with pytest.raises(KernelSingularError) as want:
        reference_propagate_forward(sys, basis, -3, 7)
    with pytest.raises(KernelSingularError) as got:
        _forward_frames(sys, basis)
    assert str(got.value) == str(want.value) == (
        "forward image of the unstable subspace loses rank at n=3")


# ------------------------------------------ the stable family against oracles

#: largest ||P_n - G(n, n)|| between characterize's family and the Green
#: diagonal of the boundary value oracle, relative to max(1, max_n ||P_n||);
#: the draws below read at most about 1e-15
GREEN_DIAGONAL_TOL = 1e-12
#: the same measure between characterize's family and the one assembled
#: from the preimage chain's stable bases
PREIMAGE_CHAIN_TOL = 1e-12


def _family_distance(proj, other):
    """max_n ||P_n - other_n|| over max(1, max_n ||P_n||)."""
    err = float(np.max(spectral_norm(proj.projections - other)))
    return err / max(1.0, float(np.max(proj.norms)))


@settings(max_examples=12, deadline=None)
@given(dims=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 0), (0, 2)]),
       domain=st.sampled_from(["one_sided", "two_sided"]), w=st.integers(12, 40),
       lam=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)), cond=st.floats(1.0, 5.0),
       c=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
def test_characterize_projections_are_the_oracles_green_diagonal(dims, domain, w, lam, cond,
                                                                 c, seed):
    window = (0, w) if domain == "one_sided" else (-(w // 2), w - w // 2)
    model, rate, nu = planted(window, *lam, dims, cond=cond, seed=seed, domain=domain)
    sys = model.system
    if c:
        spec = PerturbationSpec(gamma=geometric_gamma(window), c=c, seed=seed)
        sys = perturbed_system(sys, make_perturbation(sys, rate, nu, spec))
    res = characterize(sys, rate, nu)
    proj = res.projections
    err = np.max(spectral_norm(proj.projections[1:-1] - oracle_green_diagonal(res.system, proj)))
    assert err <= GREEN_DIAGONAL_TOL * max(1.0, float(np.max(proj.norms)))


@pytest.mark.parametrize("domain", ["one_sided", "two_sided"])
@pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 2), (3, 3)])
def test_stable_family_spans_the_preimage_chain(dims, domain):
    window = (0, 40) if domain == "one_sided" else (-20, 20)
    model, rate, nu = planted(window, 0.8, 1.1, dims, cond=4.0, seed=sum(dims), domain=domain)
    res = characterize(model.system, rate, nu)
    n_b, n_t = res.splitting.window
    anchor = classify_directions(model.system, n_t, rate)[1][:, dims[1]:]
    chain = reference_preimage_chain(model.system, anchor, n_b, n_t)
    want = reference_projections(chain, res.splitting.unstable_bases, n_b)
    assert _family_distance(res.projections, want) <= PREIMAGE_CHAIN_TOL


def test_frames_return_at_once_for_a_frame_with_no_columns(monkeypatch):
    # with dims (d, 0) both the unstable frame and the annihilator frame have
    # no columns; test_stacked_projections_equal_the_per_index_assembly
    # covers what characterize makes of (d, 0) and (0, d)
    def refuse(*args, **kwargs):
        raise AssertionError("factored a frame with no columns")

    mats = planted((0, 20), 1.0, 1.0, (2, 1))[0].system.mats
    for gufunc in ("qr_r_raw", "qr_reduced"):
        monkeypatch.setattr(splitting._umath_linalg, gufunc, refuse)
    qs, rs = splitting._frames(mats, np.zeros((3, 0)))
    assert qs.shape == (21, 3, 0) and rs.shape == (20, 0, 0)
    # both chains of characterize in one stack
    qs, rs = splitting._frames(np.stack([mats, mats], axis=1), np.zeros((2, 3, 0)))
    assert qs.shape == (21, 2, 3, 0) and rs.shape == (20, 2, 0, 0)


@pytest.mark.parametrize("domain,window", [("one_sided", (0, 20)), ("two_sided", (-10, 10))])
def test_a_step_singular_on_the_stable_side_keeps_the_splitting(domain, window):
    # diag(0, 2) in the coordinates of w_fix: its kernel w_fix e1 lies in the
    # stable family, so every preimage keeps dimension d_s and the
    # annihilator's step M^T C keeps its rank
    w_fix = np.array([[1.0, 0.0], [0.6, 1.0]])
    mats = np.stack([w_fix @ np.diag([0.5, 2.0]) @ np.linalg.inv(w_fix)] * 20)
    mats[5] = w_fix @ np.diag([0.0, 2.0]) @ np.linalg.inv(w_fix)
    sys = LinearSystem.from_matrices(mats, domain, window)
    rate = make_rate("exponential", domain, window)
    res = characterize(sys, rate, make_nu("uniform", rate))
    assert res.verify.passed
    n_b, n_t = res.splitting.window
    anchor = classify_directions(sys, n_t, rate)[1][:, 1:]
    chain = reference_preimage_chain(sys, anchor, n_b, n_t)
    want = reference_projections(chain, res.splitting.unstable_bases, n_b)
    assert _family_distance(res.projections, want) <= PREIMAGE_CHAIN_TOL
    # the step maps everything onto the unstable line, so the preimage of a
    # stable line off it is the step's kernel: at and before that step the
    # stable family is w_fix e1 whatever the anchor's error
    line = w_fix[:, :1] / np.linalg.norm(w_fix[:, :1])
    for basis in res.splitting.stable_bases[: window[0] + 6 - n_b]:
        assert subspace_gap(basis, line) <= 1e-12


# ----------------------------------------------------------------- projections


def column_stack(*cols):
    """An (a, d, 1) basis stack, one unit column per index."""
    return np.stack([np.asarray(c, dtype=float).reshape(-1, 1) for c in cols])


def test_build_projections_orthogonal_split():
    stable = column_stack(*[[1.0, 0.0]] * 3)
    unstable = column_stack(*[[0.0, 1.0]] * 3)
    proj = build_projections(stable, unstable, 4)
    assert proj.window == (4, 6)
    assert np.array_equal(proj.projections, reference_projections(stable, unstable, 4))
    for n in range(4, 7):
        assert np.allclose(proj.matrix_at(n), np.diag([1.0, 0.0]), atol=1e-14)
    assert proj.norms == pytest.approx(1.0)


def test_build_projections_oblique_norm_identity():
    # projection onto e1 along a direction at angle theta has norm 1/sin(theta)
    thetas = np.array([math.pi / 6, math.pi / 3, math.pi / 2])
    stable = column_stack(*[[1.0, 0.0]] * 3)
    unstable = column_stack(*np.stack([np.cos(thetas), np.sin(thetas)], axis=1))
    proj = build_projections(stable, unstable, 0)
    assert np.array_equal(proj.projections, reference_projections(stable, unstable))
    assert proj.norms == pytest.approx(1.0 / np.sin(thetas), rel=1e-8)


def test_build_projections_perpendicular_oblique_pair():
    # 45 and 135 degree directions are orthogonal, so the norm is exactly 1
    s = column_stack([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    u = column_stack([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)])
    proj = build_projections(s, u, 0)
    assert np.array_equal(proj.projections, reference_projections(s, u))
    assert proj.norms[0] == pytest.approx(1.0, rel=1e-8)


def test_build_projections_degenerate_cases():
    e = np.eye(3)
    with pytest.raises(SplittingDegenerateError):
        build_projections(column_stack(e[0]), column_stack(e[1]), 0)  # 1 + 1 < 3
    eps = 1e-14
    near = np.array([1.0, eps]) / math.hypot(1.0, eps)
    with pytest.raises(SplittingDegenerateError):
        build_projections(column_stack([1.0, 0.0]), column_stack(near), 0)
    # malformed stacks are a ConfigError, not an analysis failure
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    for stable, unstable in [
            (column_stack(e1, e1), column_stack(e2)),                # lengths differ
            (column_stack(e1), column_stack([0.0, 0.0, 1.0])),       # dimensions differ
            (np.eye(2)[:, :1], np.eye(2)[:, 1:]),                    # not stacks
            (np.zeros((0, 2, 1)), np.zeros((0, 2, 1))),              # no index
            (np.zeros((1, 0, 0)), np.zeros((1, 0, 0))),              # no dimension
            (column_stack([1.5, 0.0]), column_stack(e2))]:           # not orthonormal
        with pytest.raises(ConfigError):
            build_projections(stable, unstable, 0)


def test_build_projections_refuses_a_subnormal_smallest_singular_value():
    # the condition overflows a double: refused at n=0, and no warning
    with pytest.raises(SplittingDegenerateError,
                       match=r"nearly dependent at n=0 \(condition inf\)"):
        build_projections(np.array([[[1.0], [0.0]]]), np.array([[[1.0], [1e-310]]]), 0)


GEOMETRY_CASES = [((0, 30), (2, 1), "one_sided"), ((-20, 20), (1, 1), "two_sided"),
                  ((0, 12), (3, 3), "one_sided"), ((0, 20), (2, 0), "one_sided"),
                  ((0, 20), (0, 2), "one_sided")]


@pytest.mark.parametrize("window,dims,domain", GEOMETRY_CASES)
def test_stacked_projections_equal_the_per_index_assembly(window, dims, domain):
    model, rate, nu = planted(window, 1.0, 1.0, dims, cond=3.0, seed=3, domain=domain)
    res = characterize(model.system, rate, nu)
    split = res.splitting
    stable, unstable = split.stable_bases, split.unstable_bases
    a = split.window[1] - split.window[0] + 1
    assert stable.shape == (a, sum(dims), dims[0])
    assert unstable.shape == (a, sum(dims), dims[1])
    assert not stable.flags.writeable and not unstable.flags.writeable
    want = reference_projections(stable, unstable)
    assert np.array_equal(res.projections.projections, want)
    # called on the same stacks, the public assembly gives the same family
    again = build_projections(stable, unstable, split.window[0])
    assert again.window == res.projections.window
    assert np.array_equal(again.projections, want)


@pytest.mark.parametrize("side", ["stable", "unstable"])
def test_characterize_refuses_a_corrupted_basis(monkeypatch, side):
    model, rate, nu = planted((0, 30), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    if side == "stable":
        # the stable bases are the trailing columns of the one complete QR
        # of the annihilator frames, the only stack numpy factors there
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: (1.5 * qr(a, mode)[0], None))
    else:
        # the unstable stack on its way from the frame loop to the assembly
        build = splitting.build_projections
        monkeypatch.setattr(splitting, "build_projections",
                            lambda stable, unstable, n0: build(stable, 1.5 * unstable, n0))
    with pytest.raises(ConfigError, match="basis columns are not orthonormal"):
        characterize(model.system, rate, nu)


def test_characterize_names_the_first_nearly_dependent_index(monkeypatch):
    model, rate, nu = planted((0, 30), 1.0, 1.0, (1, 1), cond=3.0, seed=2)
    split = characterize(model.system, rate, nu).splitting
    n0, stable = split.window[0], split.stable_bases
    # the unstable line tilts off the stable one by 1e-14 at index 7 and
    # coincides with it at index 12
    bad = split.unstable_bases.copy()
    for i, tilt in ((7, 1e-14), (12, 0.0)):
        v = stable[i] + tilt * bad[i]
        bad[i] = v / np.linalg.norm(v)
    build = splitting.build_projections
    monkeypatch.setattr(splitting, "build_projections",
                        lambda stable, unstable, n0: build(stable, bad, n0))
    with pytest.raises(SplittingDegenerateError) as want:
        reference_projections(stable, bad, n0)
    with pytest.raises(SplittingDegenerateError) as got:
        characterize(model.system, rate, nu)
    assert str(got.value) == f"[stage build_projections] {want.value}"
    assert f"nearly dependent at n={n0 + 7} (condition " in str(got.value)


def test_build_projections_names_the_first_bad_index():
    near = np.array([1.0, 1e-14]) / math.hypot(1.0, 1e-14)
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    # indices 6 and 8 of [5, 8] are nearly dependent; 6 is named
    stable = column_stack(e1, e1, e1, e1)
    unstable = column_stack(e2, near, e2, near)
    with pytest.raises(SplittingDegenerateError) as want:
        reference_projections(stable, unstable, 5)
    assert "nearly dependent at n=6 (condition " in str(want.value)
    with pytest.raises(SplittingDegenerateError) as got:
        build_projections(stable, unstable, 5)
    assert str(got.value) == str(want.value)
    # bases that do not fill the space fail at every index, so the first is named
    with pytest.raises(SplittingDegenerateError,
                       match=r"^subspace dimensions 1\+0 do not fill dimension 2 at n=5$"):
        build_projections(stable, np.zeros((4, 2, 0)), 5)


def test_characterize_assembles_through_build_projections_once(monkeypatch):
    calls = []
    build = splitting.build_projections

    def counted(stable, unstable, n0):
        calls.append(n0)
        return build(stable, unstable, n0)

    monkeypatch.setattr(splitting, "build_projections", counted)
    model, rate, nu = planted((-20, 20), 1.0, 1.0, (1, 1), cond=3.0, seed=2,
                              domain="two_sided")
    res = characterize(model.system, rate, nu)
    assert calls == [res.projections.window[0]]


def test_recovered_projections_match_planted_with_hint():
    model, rate, nu = planted((0, 60), 1.0, 1.0, (2, 2), cond=10.0, seed=3)
    hint = model.projections.kernel_basis(0)
    res = characterize(model.system, rate, nu, boundary_hint=hint)
    for n in range(res.splitting.window[0], res.splitting.window[1] + 1):
        got = res.projections.matrix_at(n)
        want = model.projections.matrix_at(n)
        assert subspace_gap(got, want) <= 1e-6
        assert subspace_gap(np.eye(4) - got, np.eye(4) - want) <= 1e-6


# --------------------------------------------------------- weighted stable set


def test_s_beta_check_equal_when_gap_clears_beta():
    model, rate, _ = planted((0, 30), 1.0, 1.0, (1, 1), cond=3.0, seed=2)
    out = s_beta_zero_check(model.system, rate, 0.5)
    assert out.equal
    assert out.max_angle <= 1e-8
    assert out.basis_s0.dim == 1


def test_s_beta_check_detects_intermediate_direction():
    # a direction decaying at exponent -0.25 is bounded but not 0.5-weighted
    # bounded, so the two stable sets differ
    sys, rate, _ = constant_diag(
        [math.exp(-1.0), math.exp(-0.25), math.e], (0, 30))
    out = s_beta_zero_check(sys, rate, 0.5)
    assert not out.equal
    assert out.basis_s0.dim == 2
    assert out.basis_sbeta.dim == 1
    assert out.max_angle == pytest.approx(math.pi / 2)


def test_s_beta_check_classifies_once(monkeypatch):
    # both cutoffs split one classification of the window start, and each
    # basis is the one a classification split at that cutoff gives on its own
    sys, rate, _ = constant_diag(
        [math.exp(-1.0), math.exp(-0.25), math.e], (0, 30))
    want = [stable_split(sys, rate, cutoff=c) for c in (0.0, -0.5)]
    calls = []
    real = splitting.classify_directions

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(splitting, "classify_directions", counted)
    out = s_beta_zero_check(sys, rate, 0.5)
    assert calls == [0]
    for got, (basis, rho, gap) in zip((out.basis_s0, out.basis_sbeta), want):
        assert np.array_equal(got.basis, basis)
        assert np.array_equal(got.growth_exponents, rho)
        assert got.gap == gap


def test_s_beta_check_all_unstable():
    model, rate, _ = planted((0, 20), 1.0, 1.0, (0, 2))
    out = s_beta_zero_check(model.system, rate, 0.5)
    assert out.equal
    assert out.basis_s0.dim == 0
    assert out.basis_sbeta.dim == 0


def test_s_beta_check_validation():
    model, rate, _ = planted((-5, 5), 1.0, 1.0, (1, 1), domain="two_sided")
    with pytest.raises(ConfigError):
        s_beta_zero_check(model.system, rate, 0.5)
    model, rate, _ = planted((0, 10), 1.0, 1.0, (1, 1))
    with pytest.raises(ConfigError):
        s_beta_zero_check(model.system, rate, -0.5)


# ---------------------------------------------------------------- characterize


def test_characterize_scalar_contraction():
    model, rate, nu = planted((0, 20), 0.5, 1.0, (1, 0))
    res = characterize(model.system, rate, nu)
    assert res.splitting.window == (0, 16)  # right tail trimmed
    assert res.splitting.original_window == (0, 20)
    for n in range(17):
        assert np.allclose(res.projections.matrix_at(n), np.eye(1), atol=1e-12)
    assert res.certificate.lam == pytest.approx(0.5, abs=1e-6)
    assert res.certificate.D <= 1.0 + 1e-8
    assert res.verify.passed


@pytest.mark.parametrize("dims", [(2, 0), (3, 0), (2, 1), (0, 2)])
def test_green_supremum_matches_the_gather_form(dims):
    # NaN cells skipped; with no complementary side the unstable grid is NaN
    # once its diagonal is dropped, and adds nothing; with no stable side its
    # dropped diagonal, log ||Id|| - log nu_n, would set the supremum
    for nu_kind in ("uniform", "power"):
        model, rate, nu = planted((0, 30), 0.7, 1.0, dims, cond=2.0, seed=5,
                                  nu_kind=nu_kind, epsilon=0.1)
        res = characterize(model.system, rate, nu)
        beta = res.splitting.green_beta
        args = (res.system, res.projections, res.rate, res.nu)
        grids = stable_slack_grid(*args, beta), unstable_slack_grid(*args, -beta)
        got = res.splitting.green_bound_sup
        assert got == exp_or_inf(reference_green_log_sup(*grids, one_sided=True))
        assert got == operator_norm_sup(*args, beta)[0]
        if nu_kind == "power" and dims[0]:
            # nu_0 < nu_n: the column no input reaches would set the supremum
            assert got < exp_or_inf(reference_green_log_sup(*grids, one_sided=False))


def count_folds(monkeypatch):
    """The (lam, side) of every slack-grid fold made from here on."""
    calls, fold = [], dichotomy._slack_grid

    def counted(sys, proj, rate, nu, lam, stable):
        calls.append((lam, stable))
        return fold(sys, proj, rate, nu, lam, stable)

    monkeypatch.setattr(dichotomy, "_slack_grid", counted)
    return calls


def test_characterize_folds_the_fitted_lam_and_beta_star_once_each(monkeypatch):
    model, rate, nu = planted((0, 40), 0.8, 1.2, (2, 1), cond=2.0, seed=3)
    calls = count_folds(monkeypatch)
    res = characterize(model.system, rate, nu)
    lam, beta = res.certificate.lam, res.splitting.green_beta
    # the unstable grid at lam folds -lam, the sup's at -beta* folds beta*
    assert calls == [(lam, True), (-lam, False), (beta, True), (beta, False)]
    args = (res.system, res.projections, res.rate, res.nu)
    calls.clear()
    assert fit_certificate(*args) == res.certificate
    assert len(calls) == 2
    calls.clear()
    verify_dichotomy(*args, res.certificate.D, lam)
    assert len(calls) == 2


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


REUSE_CASES = {
    "one_sided_cond": ((0, 40), 0.8, 1.2, (2, 1), 2.0, "one_sided"),
    "two_sided": ((-30, 30), 1.0, 0.7, (1, 1), 1.0, "two_sided"),
    "no_unstable_side": ((0, 30), 0.7, 1.0, (2, 0), 2.0, "one_sided"),
    "two_sided_cond": ((-30, 30), 0.9, 1.1, (2, 2), 4.0, "two_sided"),
}


@pytest.mark.parametrize("name", list(REUSE_CASES))
def test_characterize_reports_equal_fresh_verify_and_sup_bit_for_bit(name):
    window, lam_s, lam_u, dims, cond, domain = REUSE_CASES[name]
    model, rate, nu = planted(window, lam_s, lam_u, dims, cond=cond, seed=2, domain=domain)
    res = characterize(model.system, rate, nu)
    cert, args = res.certificate, (res.system, res.projections, res.rate, res.nu)
    got, want = res.verify, verify_dichotomy(*args, cert.D, cert.lam)
    assert same_bits(got.slack_stable, want.slack_stable)
    assert same_bits(got.slack_unstable, want.slack_unstable)
    assert same_bits(got.max_slack_stable, want.max_slack_stable)
    assert same_bits(got.max_slack_unstable, want.max_slack_unstable)
    assert got.failure_reasons == want.failure_reasons and got.passed == want.passed
    sup = operator_norm_sup(*args, res.splitting.green_beta)[0]
    assert same_bits(res.splitting.green_bound_sup, sup)


def test_characterize_planted_four_dim():
    model, rate, nu = planted((0, 60), 1.0, 1.5, (2, 2), cond=8.0, seed=7)
    hint = model.projections.kernel_basis(0)
    res = characterize(model.system, rate, nu, boundary_hint=hint)
    assert res.verify.passed
    assert res.certificate.lam == pytest.approx(1.0, abs=1e-3)
    assert res.splitting.min_angle > 0.0
    assert math.isfinite(res.splitting.green_bound_sup)


def test_characterize_identity_fails_at_stable_stage():
    sys, rate, nu = constant_diag([1.0, 1.0], (0, 10))
    with pytest.raises(AnalysisError) as exc:
        characterize(sys, rate, nu)
    assert str(exc.value).startswith("[stage stable_subspace]")


def test_characterize_invariance_of_recovered_splitting():
    model, rate, nu = planted((0, 40), 0.8, 1.2, (2, 1), cond=6.0, seed=9)
    res = characterize(model.system, rate, nu)
    sys = model.system
    split = res.splitting
    stable, unstable = split.stable_bases, split.unstable_bases
    assert stable.shape == (split.min_angles.size, 3, 2)
    assert unstable.shape == (split.min_angles.size, 3, 1)
    for i in range(stable.shape[0] - 1):
        a = sys.matrix(split.window[0] + i)
        assert subspace_gap(a @ stable[i], stable[i + 1]) <= 1e-8
        assert subspace_gap(a @ unstable[i], unstable[i + 1]) <= 1e-8


def test_characterize_angle_norm_identity():
    # for a projection in R^d with one-dimensional range or kernel,
    # ||P|| = 1/sin(angle between range and kernel)
    model, rate, nu = planted((0, 30), 1.0, 1.0, (1, 1), cond=5.0, seed=4)
    res = characterize(model.system, rate, nu)
    split = res.splitting
    for i in range(split.min_angles.size):
        want = 1.0 / math.sin(split.min_angles[i])
        assert split.proj_norms[i] == pytest.approx(want, rel=1e-8)


def test_characterize_takes_its_angles_in_one_call(monkeypatch):
    calls = []
    angles = splitting.principal_angles

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return angles(a, b)

    monkeypatch.setattr(splitting, "principal_angles", counted)
    model, rate, nu = planted((0, 30), 1.0, 1.0, (2, 1), cond=3.0, seed=2)
    split = characterize(model.system, rate, nu).splitting
    a = split.min_angles.size
    assert calls == [((a, 3, 2), (a, 3, 1))]
    # the batched minimum angles hold to the per-index reference
    for i in range(a):
        want = reference_angles(split.stable_bases[i], split.unstable_bases[i])
        assert abs(split.min_angles[i] - want[0]) <= ANGLE_ULP_TOL


def test_characterize_factors_no_single_step_through_numpy(monkeypatch):
    # the recurrences factor one matrix per step through LAPACK directly;
    # numpy's QR and SVD serve only the stacks, so their count does not grow
    # with the window (the anchor extent is fixed by tail_horizon, so both
    # windows recurse below the trust floor equally often); the one QR is
    # the complete factorization of the stable family's annihilator frames
    calls = {"qr": 0, "svd": 0}

    def spy(name):
        fn = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    counts = []
    for w in (40, 80):
        model, rate, nu = planted((0, w), 1.0, 1.0, (2, 1), cond=3.0, seed=1)
        with monkeypatch.context() as m:
            for name in calls:
                calls[name] = 0
                m.setattr(np.linalg, name, spy(name))
            characterize(model.system, rate, nu, tail_horizon=10)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["qr"] == 1


def test_characterize_unstable_isomorphism():
    model, rate, nu = planted((0, 30), 1.0, 1.0, (2, 2), cond=7.0, seed=1)
    res = characterize(model.system, rate, nu)
    proj, sys = res.projections, model.system
    n0, n1 = res.splitting.window
    sub = sys.restrict(n0, n1)
    for m, n in ((n0, n0 + 5), (n0 + 2, n1)):
        km = proj.kernel_basis(m)
        kn = proj.kernel_basis(n)
        # the backward map on the unstable frame, off the kernel above the
        # diagonal: G(m, n) = -K_m F^-1 K_n^T (Id - P_n)
        f = -km.T @ solver_kernel(sub, proj, n)[m - n0] @ kn
        # forward map on the unstable frame inverts the backward map
        fwd = kn.T @ (np.linalg.multi_dot(
            [sys.matrix(k) for k in range(n - 1, m - 1, -1)] + [km])
            if n > m else km)
        assert np.allclose(fwd @ f, np.eye(kn.shape[1]), atol=1e-8 * max(
            1.0, np.linalg.norm(fwd, 2) * np.linalg.norm(f, 2)))


def test_recovery_error_scales_with_similarity_conditioning():
    eps = np.finfo(float).eps
    for cond in (1.0, 10.0, 100.0):
        model, rate, nu = planted((0, 60), 1.0, 1.0, (2, 2), cond=cond,
                                  seed=3)
        hint = model.projections.kernel_basis(0)
        res = characterize(model.system, rate, nu, boundary_hint=hint)
        worst = 0.0
        for n in range(res.splitting.window[0], res.splitting.window[1] + 1):
            got = res.projections.matrix_at(n)
            want = model.projections.matrix_at(n)
            worst = max(worst, subspace_gap(got, want))
        assert worst <= 1e6 * cond * eps


def test_characterize_report_serialization():
    model, rate, nu = planted((0, 20), 1.0, 1.0, (1, 1), cond=2.0, seed=0)
    res = characterize(model.system, rate, nu)
    doc = res.splitting.to_json()
    assert doc["window"] == [0, 16]
    assert doc["verdict"] == "pass"
    assert len(doc["per_n"]) == 17
    n, gap, angle, norm = res.splitting.table_columns()
    assert n.tolist() == list(range(17))
    assert gap.size == angle.size == norm.size == 17
    assert np.all(gap == res.splitting.gap)
