"""Deterministic linear-algebra helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dicholab import ConfigError, ProjectionFamily
from dicholab.linalg import (
    ANGLE_EQ_TOL,
    LOG_MAX,
    _fix_column_signs,
    batched_spectral_norms,
    exp_or_inf,
    haar_orthogonal,
    logsumexp,
    max_principal_angle,
    principal_angles,
    qr_pos,
    random_bounded_cond,
    renormalized_product,
    row_norms,
    rowspace_basis,
    slope_intercept,
    spectral_norm,
)
from dicholab.splitting import _frames

from helpers import (
    ANGLE_ULP_TOL,
    orth_stack,
    planted,
    reference_angles,
    reference_closed_form_norms,
    reference_qr_signed,
    reference_renormalized_product,
    reference_rowspace_basis,
    reference_spectral_norm,
)


def test_spectral_norm_agrees_with_numpy():
    rng = np.random.default_rng(0)
    for d in (1, 2, 5):
        a = rng.standard_normal((d, d))
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_stacked_spectral_norms_equal_one_call_per_matrix():
    rng = np.random.default_rng(7)
    for d in (0, 1, 2, 3, 4):
        x = rng.standard_normal((60, d, d))
        # LAPACK's 1 x 1 SVD rounds |a| beyond about 1e+-140; span all of it
        x *= 10.0 ** rng.uniform(-300, 300, 60)[:, None, None]
        x[0] = 0.0
        x[1] = -0.0
        x[2] = rng.standard_normal((d, d)) * 1e-310
        got = spectral_norm(x)
        assert got.shape == (60,)
        assert np.array_equal(got, [spectral_norm(m) for m in x])
    assert spectral_norm(np.zeros((0, 2, 2))).shape == (0,)


def test_norms_whose_squares_overflow_stay_finite():
    # 1e200 squared overflows a double; the norms themselves do not
    x = np.array([[3e200, -4e200], [3.0, 4.0], [0.0, 0.0], [1.5e308, 1.5e308]])
    got = row_norms(x)
    assert got[0] == pytest.approx(5e200, rel=1e-15)
    assert got[1:3].tolist() == [5.0, 0.0]
    assert got[3] == math.inf
    assert spectral_norm(np.array([[1e200], [-1e200]])) == pytest.approx(
        math.sqrt(2.0) * 1e200, rel=1e-15)
    # squares that go subnormal or underflow to 0 are scaled away too
    # (abs=0: approx would otherwise accept 0.0 for any tiny norm)
    assert spectral_norm(np.array([[3e-200, 4e-200]])) == pytest.approx(
        5e-200, rel=1e-15, abs=0.0)
    tiny = np.array([[3e-170, 4e-170], [0.0, 7.43e-158], [5e-324, 0.0]])
    assert row_norms(tiny) == pytest.approx([5e-170, 7.43e-158, 5e-324], rel=1e-15, abs=0.0)
    assert spectral_norm(tiny[1:2].T) == 7.43e-158
    # rows that fit take the plain path, bit for bit
    y = np.random.default_rng(2).standard_normal((50, 3))
    assert np.array_equal(row_norms(y), np.linalg.norm(y, axis=1))
    assert spectral_norm(y[:, :1]) == np.linalg.norm(y[:, :1])


def test_thin_stack_norms_match_svd():
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for shape in ((1, 4), (5, 1), (1, 1), (2, 6), (4, 2), (2, 2), (3, 3), (3, 5)):
        x = rng.standard_normal((80,) + shape)
        x *= 10.0 ** rng.uniform(-300, 300, 80)[:, None, None]
        x[0] = 0.0
        x[1] = rng.standard_normal(shape) * 1e-310     # subnormal entries
        x[2, 0] = 1e-300 * rng.standard_normal(shape[1])
        want = np.linalg.svd(x, compute_uv=False)[:, 0]
        got = batched_spectral_norms(x)
        assert got[0] == 0.0
        bound = 8 if min(shape) > 2 else 4  # Gram's top eigenvalue, else closed form
        assert np.all(np.abs(got - want) <= bound * np.maximum(eps * want, np.spacing(want)))
        # the scaling is exact: a power of two passes straight through
        k = np.where(got[3:] < 1.0, 40, -40)
        assert np.array_equal(batched_spectral_norms(np.ldexp(x[3:], k[:, None, None])),
                              np.ldexp(got[3:], k))
        if shape == (1, 1):
            assert np.array_equal(got, np.abs(x[:, 0, 0]))
    assert batched_spectral_norms(np.zeros((0, 2, 3))).shape == (0,)
    assert batched_spectral_norms(np.zeros((2, 0, 3))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 5), (5, 3), (6, 6)])
def test_gram_norms_stay_within_eight_eps_of_the_svd(shape):
    # min(p, q) >= 3 takes sqrt of the top eigenvalue of the smaller Gram of
    # the power-of-two-scaled block, by Jacobi at rank 3; 4,000 blocks per
    # case (20,000 showed at most 6.4 eps, and Jacobi at three sweeps in
    # place of four misses by up to 4e5 eps on random (5, 3) blocks)
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    k, (p, q), m = 4000, shape, min(shape)

    def haar(n):
        return qr_pos(rng.standard_normal((k, n, n)))[0]

    # top two singular values within 1e-8 of each other
    sig = np.sort(rng.uniform(0.1, 1.0, (k, m)), axis=1)[:, ::-1].copy()
    sig[:, 1] = sig[:, 0] * (1.0 - rng.uniform(0.0, 1e-8, k))
    close = np.zeros((k, p, q))
    close[:, np.arange(m), np.arange(m)] = sig
    cases = {
        "random": rng.standard_normal((k, p, q)),
        "close": haar(p) @ close @ np.swapaxes(haar(q), 1, 2),
        "rank one": rng.standard_normal((k, p, 1)) * rng.standard_normal((k, 1, q)),
        "rank two": rng.standard_normal((k, p, 2)) @ rng.standard_normal((k, 2, q)),
    }
    # the smaller side graded 1, 1e-4, 1e-8 (, 1e-12 ..): so is the Gram
    grades = 10.0 ** (-4.0 * np.arange(m))
    x = rng.standard_normal((k, p, q))
    cases["graded"] = x * (grades[:, None] if p <= q else grades)
    if p == q:
        cases["orthogonal"] = haar(p)
    for name, x in cases.items():
        want = np.linalg.svd(x, compute_uv=False)[:, 0]
        got = batched_spectral_norms(x)
        assert np.all(np.abs(got - want) <= 8 * eps * want), name
        # the scaling is exact: 2^+-1000 passes straight through
        for e in (1000, -1000):
            assert np.array_equal(batched_spectral_norms(np.ldexp(x, e)), np.ldexp(got, e)), name
        # a transposed entry-major array is read in place, with the same bits
        rows = np.ascontiguousarray(x.T)
        assert np.array_equal(batched_spectral_norms(rows.T), got), name
    assert batched_spectral_norms(np.zeros((3, p, q))).tolist() == [0.0, 0.0, 0.0]
    assert batched_spectral_norms(-np.zeros((1, p, q))).tolist() == [0.0]


def test_gram_norms_where_the_jacobi_squares_underflow():
    # two equal Gram diagonal entries and off-diagonal ones below 2^-511:
    # d * d + h * h of a rotation goes subnormal, which once gave a tangent
    # that overflowed and a norm 3% high (a c sweep at c = 1.2e-154)
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    x = np.zeros((400, 3, 3))
    x[:, [0, 1, 2], [0, 1, 2]] = 1.0
    x[:, 0, 0] = rng.uniform(0.1, 1.0, 400)
    x += np.ldexp(rng.standard_normal((400, 3, 3)), rng.integers(-1070, -520, (400, 1, 1)))
    want = np.linalg.svd(x, compute_uv=False)[:, 0]
    assert np.all(np.abs(batched_spectral_norms(x) - want) <= 8 * eps * want)


def test_gram_norms_return_a_non_finite_entry():
    # the symmetric solver refuses NaN: such a matrix gets its inf or NaN
    # back, and the other blocks keep the bits of a call without it
    x = np.random.default_rng(4).standard_normal((4, 3, 4))
    x[1, 0, 0], x[2, 2, 3] = np.nan, -np.inf
    got = batched_spectral_norms(x)
    assert np.isnan(got[1]) and got[2] == np.inf
    assert np.array_equal(got[[0, 3]], batched_spectral_norms(x[[0, 3]]))


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), (1, 9), (12, 1)])
def test_closed_form_norms_keep_their_row_major_bits(shape):
    # reading the entries as rows, column-major and from any layout, changes
    # no bit of the two-hypot form or of a row's or column's sum of squares
    rng = np.random.default_rng(21)
    x = np.ldexp(rng.standard_normal((500,) + shape), rng.integers(-1070, 1000, (500, 1, 1)))
    x[0], x[1], x[2] = 0.0, -0.0, 5e-324
    want = reference_closed_form_norms(x).view(np.uint64)
    for stack in (x, np.ascontiguousarray(x.T).T, np.asfortranarray(x)):
        assert np.array_equal(batched_spectral_norms(stack).view(np.uint64), want)


def test_two_by_two_norms_are_exact_where_the_answer_is_representable():
    # (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 adds two non-negative
    # terms, so these cases come out exact at any scale, subnormal included
    rng = np.random.default_rng(9)
    k = rng.integers(-1070, 1000, 60)
    x = np.ldexp(rng.uniform(0.5, 1.0, 60), k)
    x[:3] = [5e-324, np.finfo(float).tiny, np.finfo(float).max]
    diag = np.zeros((120, 2, 2))
    diag[:60, 0, 0] = x
    diag[60:, 1, 1] = -x
    assert np.array_equal(batched_spectral_norms(diag), np.concatenate([x, x]))
    # a scaled rotation has sigma_1 = sigma_2 = the norm of a column; a
    # Pythagorean one and its reflection give 5 * 2^k exactly
    c, s = np.ldexp(rng.standard_normal((2, 60)), rng.integers(-1000, 1000, 60))
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    assert np.array_equal(batched_spectral_norms(rot), np.hypot(c, s))
    k = rng.integers(-1070, 1020, 40)
    triples = np.ldexp(np.array([[[3.0, -4.0], [4.0, 3.0]], [[3.0, 4.0], [4.0, -3.0]]] * 20),
                       k[:, None, None])
    assert np.array_equal(batched_spectral_norms(triples), np.ldexp(5.0, k))
    assert batched_spectral_norms(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]
    assert batched_spectral_norms(-np.zeros((1, 2, 2))).tolist() == [0.0]


def test_closed_form_norms_of_a_stack_do_not_depend_on_its_other_blocks():
    # each block's norm comes out with the bits of a call on that block
    # alone, also beside zero, subnormal, huge, inf and NaN blocks
    rng = np.random.default_rng(13)
    for shape in ((2, 2), (1, 3), (4, 1)):
        x = rng.standard_normal((9,) + shape)
        x[1] = 0.0
        x[2] *= 1e-310
        x[3] *= 1e300
        x[4, 0, 0] = np.inf
        x[5, 0, 0] = np.nan
        got = batched_spectral_norms(x)
        one_by_one = np.concatenate([batched_spectral_norms(b[None]) for b in x])
        assert np.array_equal(got.view(np.uint64), one_by_one.view(np.uint64))
        assert np.array_equal(batched_spectral_norms(x[6:]), got[6:])


def test_range_bases_span_and_are_orthonormal():
    # an oblique rank-3 projection per index; its range basis comes out of
    # the family's one stacked SVD
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 6, 3))
    w = rng.standard_normal((4, 6, 3))
    p = s @ np.linalg.solve(np.swapaxes(w, 1, 2) @ s, np.swapaxes(w, 1, 2))
    proj = ProjectionFamily(window=(0, 3), projections=p, stable_rank=3)
    for n in range(4):
        q = proj.ranges[n]
        assert q.shape == (6, 3)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-13)
        # orth cuts P_n at its numerical rank 3, so its columns span the range
        assert max_principal_angle(q, orth_stack(p[n:n + 1])[0]) < 1e-12
        assert np.allclose(p[n] @ proj.kernel_basis(n), 0.0, atol=1e-12)


def test_principal_angles_refuse_bases_that_are_not_orthonormal():
    # a rank-deficient, an oblique and a NaN basis, alone or in one matrix of
    # a stack, on either side; orthonormalized, they give scipy's angles
    a = np.zeros((4, 3))
    a[:, 0] = [1, 0, 0, 0]
    b = np.eye(4)[:, 1:3]
    oblique = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    for x, y, side in ((a, b, "first"), (b, oblique, "second"), (b, b * math.nan, "second"),
                       (np.stack([b, oblique]), np.stack([b, b]), "first"),
                       (np.stack([b, b]), np.stack([b, a[:, :2]]), "second")):
        with pytest.raises(ConfigError, match=f"^{side} basis columns are not orthonormal$"):
            principal_angles(x, y)
    ang = principal_angles(orth_stack(a[None])[0], b)
    assert ang.shape == (1,)
    assert np.all(np.abs(ang - reference_angles(a, b)) <= ANGLE_ULP_TOL)


@pytest.mark.parametrize("kind", ["exponential", "polynomial", "logarithmic"])
@pytest.mark.parametrize("w", [1, 2, 3, 7, 512])
def test_tree_product_agrees_with_the_sequential_product(kind, w):
    eps = np.finfo(float).eps
    for dims, cond in (((2, 1), 5.0), ((1, 2), 3.0), ((3, 3), 4.0)):
        model, _, _ = planted((0, w), 0.7, 1.1, dims, cond=cond, seed=w, rate_kind=kind)
        mats, ls = model.system.mats, model.system.log_scales
        c, r = renormalized_product(mats, ls)
        want_c, want_r = reference_renormalized_product(mats, ls)
        # the log scale: np.sum's pairwise rounding plus one rounding per level
        bound = 4.0 * (1.0 + math.log2(w)) * eps * max(1.0, float(np.sum(np.abs(ls))))
        assert abs(c - want_c) <= bound
        assert spectral_norm(r) == pytest.approx(1.0, abs=8 * eps)
        # the top cluster: the unstable directions at both ends of the window
        (u, _, vt), (want_u, _, want_vt) = np.linalg.svd(r), np.linalg.svd(want_r)
        k = dims[1]
        assert max_principal_angle(u[:, :k], want_u[:, :k]) <= ANGLE_EQ_TOL
        assert max_principal_angle(vt[:k].T, want_vt[:k].T) <= ANGLE_EQ_TOL


def test_tree_product_pins_the_degenerate_windows():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    cases = [
        (np.stack([rot, rot, rot]), np.array([0.5, -math.inf, 2.0])),   # a -inf scale
        (np.stack([nil, nil]), np.array([1.0, 1.0])),                   # nilpotent pair
        (np.stack([nil, np.diag([1.0, 0.5]), nil]), np.zeros(3)),       # N D N, padded
    ]
    for mats, ls in cases:
        for c, r in (renormalized_product(mats, ls), reference_renormalized_product(mats, ls)):
            assert c == -math.inf
            assert np.array_equal(r, np.zeros((2, 2)))
    c, r = renormalized_product(np.zeros((0, 3, 3)), np.zeros(0))
    assert c == 0.0 and np.array_equal(r, np.eye(3))


def test_tree_product_of_an_overflowing_doubly_exponential_window_is_exact():
    # scales e^(n+1) - e^n over [0, 13]: the raw product is e^(e^13 - 1), far
    # past the doubles; power-of-two steps keep every level exact, and the
    # odd levels take the identity padding
    ls = np.diff(np.exp(np.arange(14.0)))
    mats = np.stack([np.diag([1.0, 0.5])] * 13)
    c, r = renormalized_product(mats, ls)
    assert c > LOG_MAX and c == float(np.sum(ls))
    assert np.array_equal(r, np.diag([1.0, 2.0 ** -13]))
    want_c, want_r = reference_renormalized_product(mats, ls)
    assert np.array_equal(r, want_r) and c == pytest.approx(want_c, rel=4 * np.finfo(float).eps)


def test_rowspace_basis():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    r = rowspace_basis(a, 1)
    assert r.shape == (3, 1)
    assert abs(abs(r[:, 0] @ np.array([1.0, 2.0, 0.0]) / math.sqrt(5)) - 1) < 1e-12


def test_qr_pos_reconstruction_and_sign():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    q, r = qr_pos(a)
    assert np.allclose(q @ r, a, atol=1e-12)
    assert np.all(np.diag(r) >= 0.0)
    # unique factorization: rerunning is bitwise identical
    q2, r2 = qr_pos(a)
    assert np.array_equal(q, q2) and np.array_equal(r, r2)


def _numpy_qr_pos(a):
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d[None, :], r * d[:, None]


def _single_matrices(rng, d, p):
    """d x p matrices: plain, columns scaled by 1e+-150, rank-deficient and
    zero, each in C and in Fortran order."""
    plain = rng.standard_normal((d, p))
    scaled = plain * 10.0 ** rng.choice([-150.0, 0.0, 150.0], p)
    deficient = plain.copy()
    deficient[:, -1] = 0.0 if p == 1 else 3.0 * deficient[:, 0]
    out = []
    for a in (plain, scaled, deficient, np.zeros((d, p))):
        out += [np.ascontiguousarray(a), np.asfortranarray(a)]
    return out


def _signed_by_broadcast(q):
    """Each column times the sign of its largest-magnitude entry, a zero
    sign read as 1: the sign convention as one broadcast product."""
    idx = np.argmax(np.abs(q), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(q, idx, axis=-2))
    signs[signs == 0] = 1.0
    return q * signs


def _same_bits(got, want):
    return (got.shape == want.shape and got.flags.c_contiguous == want.flags.c_contiguous
            and got.flags.f_contiguous == want.flags.f_contiguous
            and np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                               np.ascontiguousarray(want).view(np.uint64)))


def test_sign_fixes_keep_the_bits_of_the_broadcast_formula():
    # pivots that are negative, 0.0, -0.0 and NaN (with either sign bit);
    # signed zeros and NaN payloads must come out as the product gives them
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 6))
    q[:, 0] = -np.abs(q[:, 0])
    q[:, 1] = 0.0
    q[:, 2] = [-0.0, 0.0, -0.0, 0.0]
    q[1, 3] = np.nan
    q[2, 4] = -np.nan
    q[0, 5], q[3, 5] = -0.0, 9.0
    for a in (q, np.asfortranarray(q), q[:, ::-1], q[::2], q.T, q[:, :1]):
        assert _same_bits(_fix_column_signs(a), _signed_by_broadcast(a))
    stack = np.stack([q, -q, q[::-1]])
    assert _same_bits(_fix_column_signs(stack), _signed_by_broadcast(stack))
    # R's diagonal: a positive first entry gives a negative pivot, a zero
    # column 0.0 or -0.0, a NaN entry NaN; one to six columns
    cases = [rng.standard_normal((3, 2)), np.array([[-0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
             np.array([[np.nan, 1.0], [1.0, 2.0], [0.0, 3.0]]),
             np.array([[1.0, np.nan], [1.0, 2.0], [0.0, 3.0]]),
             np.array([[0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]), np.abs(rng.standard_normal((3, 3))),
             rng.standard_normal((6, 3)), rng.standard_normal((6, 6)), rng.standard_normal((4, 5))]
    wide = rng.standard_normal((6, 4))
    wide[:, 1] = 0.0
    wide[:, 2] = [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0]
    wide[3, 3] = np.nan
    cases.append(wide)
    for a in cases:
        for b in (a, a[:, :1], a.T, np.asfortranarray(a)):
            for got, want in zip(qr_pos(b), _numpy_qr_pos(b)):
                assert _same_bits(got, want)


@pytest.mark.parametrize("d", range(1, 7))
def test_single_matrix_lapack_paths_equal_numpy(d):
    rng = np.random.default_rng(d)
    for p in range(1, d + 1):
        for tall in _single_matrices(rng, d, p):
            # the p x d transposes take the wide branch of the QR
            for a in (tall, tall.T):
                q, r = qr_pos(a)
                want_q, want_r = _numpy_qr_pos(a)
                # Q comes from the Householder vectors under R's diagonal:
                # zeroing them in place before dorgqr reads them breaks this
                assert np.array_equal(q, want_q) and np.array_equal(r, want_r)
                # numpy's layouts, which later products round by
                assert q.flags.c_contiguous and r.flags.c_contiguous
                if min(a.shape) > 1:
                    assert spectral_norm(a) == np.linalg.svd(a, compute_uv=False)[0]
                vt = np.linalg.svd(a)[2]
                n = a.shape[1]
                for k in range(1, n + 1):
                    got, want = rowspace_basis(a, k), _fix_column_signs(vt[:k].T)
                    assert np.array_equal(got, want)
                    assert got.flags.f_contiguous == want.flags.f_contiguous


def test_stacked_qr_pos_equals_one_call_per_matrix():
    rng = np.random.default_rng(8)
    for d in range(1, 7):
        for p in range(1, d + 1):
            x = rng.standard_normal((20, d, p)) * 10.0 ** rng.choice([-150.0, 0.0, 150.0],
                                                                     (20, 1, p))
            x[0] = 0.0
            x[1, :, -1] = 2.0 * x[1, :, 0]
            q, r = qr_pos(x)
            for i in range(20):
                qi, ri = qr_pos(x[i])
                assert np.array_equal(q[i], qi) and np.array_equal(r[i], ri)


@pytest.mark.parametrize("fn", [spectral_norm, lambda a: rowspace_basis(a, 1)],
                         ids=["spectral_norm", "rowspace_basis"])
def test_single_matrix_svd_refuses_a_nan_entry_as_numpy_does(fn):
    # LAPACK flags the NaN with info = -4 and hands back zero singular
    # values, which would read as a collapsed product
    a = np.array([[1.0, 2.0, 0.0], [0.0, math.nan, 1.0], [3.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(a)
    with pytest.raises(np.linalg.LinAlgError):
        fn(a)


def test_single_matrix_svd_failure_names_the_gufunc():
    a = np.array([[1.0, 2.0, 0.0], [0.0, math.nan, 1.0], [3.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="encountered in svd$"):
        spectral_norm(a)
    with pytest.raises(np.linalg.LinAlgError, match="encountered in svd_f$"):
        rowspace_basis(a, 1)


def _same_qr_bits(got, want):
    """_same_bits with every NaN read as one NaN: which of two NaNs a
    product keeps depends on the order numpy's loop takes its operands in
    (Q of a NaN column times a NaN pivot's sign has either sign bit)."""
    got, want = got.copy(order="K"), want.copy(order="K")
    for x in (got, want):
        x[np.isnan(x)] = np.nan
    return _same_bits(got, want)


def _assert_qr_pos_matches_scipy(a):
    """qr_pos on a and on a stack of a and -a against SciPy's raw wrappers,
    bit for bit and with no warning; the caller's array is left as it was."""
    before = a.copy(order="K")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qr_pos(a)
        stacked = qr_pos(np.stack([a, -a]))
    for i, want in enumerate((reference_qr_signed(a), reference_qr_signed(-a))):
        assert _same_qr_bits(stacked[0][i], want[0]) and _same_qr_bits(stacked[1][i], want[1])
    assert _same_qr_bits(got[0], stacked[0][0]) and _same_qr_bits(got[1], stacked[1][0])
    assert _same_bits(a, before)


def _assert_frames_match_scipy(steps, q):
    """_frames at every lo against SciPy's raw wrappers on each step's
    product, bit for bit and with no warning."""
    for lo in range(q.shape[1] + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qs, rs = _frames(steps, q, lo)
        for j in range(len(steps)):
            want_q, want_r = reference_qr_signed(steps[j] @ qs[j], lo)
            assert _same_qr_bits(qs[j + 1], want_q) and _same_qr_bits(rs[j], want_r)


@pytest.mark.parametrize("d", range(1, 7))
def test_single_matrix_gufuncs_equal_scipys_raw_lapack(d):
    rng = np.random.default_rng(100 + d)
    # the identity first: the frames' first product is the case itself
    steps = np.concatenate([np.eye(d)[None], rng.standard_normal((3, d, d))])
    for p in range(1, d + 1):
        cases = _single_matrices(rng, d, p)
        pow2 = rng.standard_normal((d, p)) * 2.0 ** rng.choice([-500.0, 0.0, 500.0], p)
        cases += [pow2, 2.0 ** 500 * cases[0], 2.0 ** -500 * cases[0]]
        for tall in cases:
            _assert_frames_match_scipy(steps, tall)
            for a in (tall, tall.T):
                before = a.copy(order="K")
                _assert_qr_pos_matches_scipy(a)
                if min(a.shape) > 1:
                    assert spectral_norm(a) == reference_spectral_norm(a)
                n = a.shape[1]
                for k in range(1, n + 1):
                    assert np.array_equal(rowspace_basis(a, k), reference_rowspace_basis(a, k))
                assert _same_bits(a, before)


def test_qr_signs_a_zero_pivot_plus_and_a_nan_pivot_nan():
    # the zero column gives a zero pivot, whose column of Q and row of R
    # stay LAPACK's: e1 and the first row
    a = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    q, r = qr_pos(a)
    assert np.array_equal(q[:, 0], [1.0, 0.0, 0.0]) and np.array_equal(r[0], [0.0, 1.0])
    # a NaN in the frame's first column makes the whole product column NaN
    frame = np.array([[math.nan, 1.0], [1.0, 2.0], [0.0, 3.0]])
    qs, rs = _frames(np.eye(3)[None], frame)
    assert np.isnan(qs[1][:, 0]).all() and np.isnan(rs[0][0]).all()
    _assert_frames_match_scipy(np.eye(3)[None], frame)
    _assert_frames_match_scipy(np.eye(3)[None], a)


def test_single_matrix_qr_passes_nan_and_inf_through_silently():
    # a NaN pivot multiplies its column of Q and row of R by NaN; the
    # gufuncs raise no floating-point warning
    rng = np.random.default_rng(11)
    for bad in (math.nan, math.inf, -math.inf):
        for shape in ((3, 3), (5, 2), (2, 4)):
            for i, j in ((0, 0), (1, 0), (shape[0] - 1, shape[1] - 1)):
                a = rng.standard_normal(shape)
                a[i, j] = bad
                _assert_qr_pos_matches_scipy(a)
                _assert_qr_pos_matches_scipy(np.asfortranarray(a))
                if shape[0] >= shape[1]:
                    _assert_frames_match_scipy(rng.standard_normal((2,) + shape[:1] * 2), a)
    q, r = qr_pos(np.array([[math.nan, 1.0], [1.0, 2.0], [0.0, 3.0]]))
    assert np.isnan(q[:, 0]).all() and np.isnan(r[0]).all()


def test_principal_angles_known_value():
    e1 = np.array([[1.0], [0.0]])
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
    ang = principal_angles(e1, diag)
    assert ang.shape == (1,)
    assert ang[0] == pytest.approx(math.pi / 4, rel=1e-12)
    assert max_principal_angle(e1, e1) < 1e-12
    assert max_principal_angle(np.zeros((2, 0)), e1) == 0.0


def _angle_pairs(rng, k, d, p, q):
    """k pairs of spans: random, nearby (angles below 45 degrees, the arcsin
    branch) and orthonormal."""
    a = rng.standard_normal((3, k, d, p))
    b = rng.standard_normal((3, k, d, q))
    m = min(p, q)
    b[1, :, :, :m] = a[1, :, :, :m] + 1e-6 * rng.standard_normal((k, d, m))
    a[2] = np.linalg.qr(a[2])[0]
    b[2] = np.linalg.qr(b[2])[0]
    return a.reshape(3 * k, d, p), b.reshape(3 * k, d, q)


@pytest.mark.parametrize("d,p,q", [(3, 2, 1), (2, 1, 1), (4, 2, 2), (6, 3, 3),
                                   (3, 1, 2), (6, 1, 5)])
def test_stacked_principal_angles_match_the_mpmath_angles(d, p, q):
    # (3, 1, 2) and (6, 1, 5) take the p < q branch; the reference takes the
    # spans of the orthonormal bases the library gets
    a, b = _angle_pairs(np.random.default_rng(d * 100 + p * 10 + q), 40, d, p, q)
    qa, qb = orth_stack(a), orth_stack(b)
    got = principal_angles(qa, qb)
    assert got.shape == (a.shape[0], min(p, q))
    for i in range(a.shape[0]):
        want = reference_angles(qa[i], qb[i])
        assert np.all(np.abs(got[i] - want) <= ANGLE_ULP_TOL)
        assert np.array_equal(principal_angles(qa[i], qb[i]), got[i])
    # both branches ran: small angles by arcsin, large ones by arccos
    assert got.min() < 1e-4 and got.max() > math.pi / 4
    tops = max_principal_angle(qa, qb)
    assert np.array_equal(tops, got[:, -1])


def test_principal_angles_of_empty_spans():
    e = np.zeros((5, 3, 0))
    f = orth_stack(np.random.default_rng(6).standard_normal((5, 3, 2)))
    assert principal_angles(e, f).shape == (5, 0)
    assert principal_angles(f, e).shape == (5, 0)
    assert np.array_equal(max_principal_angle(e, f), np.zeros(5))
    assert principal_angles(e[0], f[0]).shape == (0,)


def test_tiny_rotation_reads_its_angle_not_the_arccos_floor():
    # arccos of a cosine that rounds to 1 would read 0 or about 1e-8
    t = 1e-12
    e1 = np.array([[1.0], [0.0], [0.0]])
    turned = np.array([[math.cos(t)], [math.sin(t)], [0.0]])
    got = principal_angles(e1, turned)
    assert got[0] == pytest.approx(t, rel=1e-6)
    assert got[0] == pytest.approx(reference_angles(e1, turned)[0], rel=ANGLE_ULP_TOL, abs=0.0)


@pytest.mark.parametrize("s, t", [(1e-3, 1.5707), (1.5707, 1e-3), (0.3, 1.2), (1e-8, 0.8)])
def test_each_angle_takes_the_branch_of_its_own_cosine(s, t):
    # a small and a large angle side by side, under 200 random rotations:
    # read by the other's branch, the large one was arcsin of a sine near 1,
    # 16,906 eps off at (1e-3, 1.5707); each holds to the mpmath angles
    e = np.eye(4)
    a = e[:, :2]
    b = np.stack([math.cos(s) * e[0] + math.sin(s) * e[2],
                  math.cos(t) * e[1] + math.sin(t) * e[3]], axis=1)
    rots = np.linalg.qr(np.random.default_rng(19).standard_normal((200, 4, 4)))[0]
    got = principal_angles(rots @ a, rots @ b)
    for i in range(200):
        want = reference_angles(rots[i] @ a, rots[i] @ b)
        assert np.all(np.abs(got[i] - want) <= ANGLE_ULP_TOL)
    assert np.allclose(got, sorted([s, t]), rtol=0.0, atol=1e-14)


def test_haar_orthogonal_properties():
    rng = np.random.default_rng(4)
    q = haar_orthogonal(rng, 5)
    assert np.allclose(q.T @ q, np.eye(5), atol=1e-13)
    q2 = haar_orthogonal(np.random.default_rng(4), 5)
    assert np.array_equal(q, q2)
    assert haar_orthogonal(rng, 0).shape == (0, 0)


def test_random_bounded_cond_exact_condition():
    rng = np.random.default_rng(5)
    for d, cond in ((2, 10.0), (4, 100.0), (6, 3.0)):
        w = random_bounded_cond(rng, d, cond)
        s = np.linalg.svd(w, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(cond, rel=1e-10)
    assert np.array_equal(random_bounded_cond(rng, 1, 50.0), np.eye(1))
    assert np.array_equal(random_bounded_cond(rng, 3, 1.0), np.eye(3))


def test_slope_intercept_recovers_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 2.5 * x - 1.25
    slope, intercept = slope_intercept(x, y)
    assert slope == pytest.approx(2.5, rel=1e-14)
    assert intercept == pytest.approx(-1.25, rel=1e-14)
    with pytest.raises(ValueError):
        slope_intercept([1.0], [1.0])
    with pytest.raises(ValueError):
        slope_intercept([2.0, 2.0], [0.0, 1.0])


def test_logsumexp_extreme_scales():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), rel=1e-15)
    assert logsumexp([-2000.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert logsumexp([]) == float("-inf")
    assert logsumexp([float("-inf"), float("-inf")]) == float("-inf")
    assert math.isnan(logsumexp([float("nan")])) is False  # NaN entries dropped


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_logsumexp_matches_direct_sum(terms):
    direct = math.log(sum(math.exp(t) for t in terms))
    assert logsumexp(terms) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(rows=st.integers(0, 5), cols=st.integers(0, 9),
       specials=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 700.0, -800.0]),
                         max_size=6),
       seed=st.integers(0, 2**16))
def test_stacked_logsumexp_is_one_call_per_row_bit_for_bit(rows, cols, specials, seed):
    # a NaN row drops its NaNs; an all -inf, a +inf and an empty row keep
    # the one-row answers
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((rows, cols)) * 300.0
    for v in specials if t.size else ():
        t.flat[rng.integers(t.size)] = v
    got = logsumexp(t)
    assert got.shape == (rows,)
    assert got.tobytes() == np.array([logsumexp(r) for r in t]).tobytes()


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_spectral_norm_submultiplicative(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    b = rng.standard_normal((d, d))
    assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) * (1 + 1e-12)


def test_exp_or_inf_saturates_only_beyond_the_double_range():
    assert exp_or_inf(-math.inf) == 0.0
    assert exp_or_inf(0.0) == 1.0
    # logs in [700, LOG_MAX) still have a finite exponential
    assert exp_or_inf(705.0) == math.exp(705.0)
    assert exp_or_inf(LOG_MAX) == math.inf
    assert exp_or_inf(math.inf) == math.inf
