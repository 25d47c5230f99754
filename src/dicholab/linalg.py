"""Small shared linear-algebra helpers.

Everything here is deterministic: SVD/QR outputs are post-processed with a
fixed sign convention so that repeated runs (and different thread counts)
produce bit-identical bases.

QR (a matrix or a stack, its sign rule read off LAPACK's raw factor and
shared with the splitting recurrences) and one matrix's SVD go straight to
numpy's LAPACK gufuncs; a stack's SVD goes through ``np.linalg``, whose
checks and casts around the same gufuncs cost more than the LAPACK call on
3 x 3 matrices: one LAPACK path, one layout, the same bits.  QR passes a
NaN through without raising a floating-point flag; a failed ``dgesdd`` (a
NaN entry) raises ``np.linalg.LinAlgError`` as in numpy.  The one norm
kernel for stacks, ``batched_spectral_norms``, reads its rows where the
decay march holds them.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigError

#: largest natural log whose exponential is still a finite double
LOG_MAX = math.log(np.finfo(float).max)
#: largest ||B^T B - Id|| a basis may show and still count as orthonormal
ORTHONORMAL_TOL = 1e-12
#: largest principal angle at which two spans count as the same subspace
ANGLE_EQ_TOL = 1e-8
#: below this Euclidean norm the squares summed were subnormal and lost digits
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _svd(gufunc, a):
    """numpy's gufunc ``svd`` (singular values) or ``svd_f`` (full U, s, V^T)
    on a float array; a LAPACK failure raises LinAlgError naming the gufunc."""
    try:
        with np.errstate(invalid="raise"):
            return gufunc(a)
    except FloatingPointError as err:
        raise np.linalg.LinAlgError(str(err)) from None


def exp_or_inf(log_value):
    """exp(log_value) as a double, saturated to inf where it overflows; of each
    element of an array by math.exp, which np.exp differs from in a last bit."""
    if isinstance(log_value, np.ndarray):
        return np.array([exp_or_inf(v) for v in log_value.tolist()])
    return math.inf if log_value >= LOG_MAX else math.exp(log_value)


def spectral_norm(a):
    """Largest singular value of a matrix; for a square (k, d, d) stack, of
    each matrix, in one call and with the bits of one call per matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 3:
        if a.shape[1] <= 1:  # LAPACK rounds a 1 x 1 |a| beyond about 1e+-140
            return np.abs(a).sum(axis=(1, 2))
        return np.linalg.svd(a, compute_uv=False)[:, 0]
    if a.size == 0:
        return 0.0
    if a.shape[-2] == 1 or a.shape[-1] == 1:
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(a))
        if (math.isinf(n) or n < _SQRT_TINY) and np.all(np.isfinite(a)):
            # the squares overflowed or went subnormal, not the norm
            top = float(np.max(np.abs(a)))
            if top > 0.0:
                n = top * float(np.linalg.norm(a / top))
        return n
    return float(_svd(_umath_linalg.svd, a)[0])


def batched_spectral_norms(stack):
    """Largest singular value of each matrix in a (k, p, q) stack, each one
    scaled first by the power of two of its largest entry (exact, and sums
    and squares stay in range; 1 x 1 gives |a|, a zero matrix 0): in closed
    form up to rank 2, else as the root of the smaller Gram's top eigenvalue,
    by Jacobi at rank 3 and from LAPACK above.  It works on the rows
    ``stack.T``, one per entry and one column per matrix, read in place
    where the stack transposes an entry-major array."""
    stack = np.asarray(stack, dtype=float)
    k, p, q = stack.shape
    if k == 0:
        return np.zeros(0)
    rows = stack.T.reshape(q * p, k)
    top = np.max(np.abs(rows), axis=0, initial=0.0)
    e = np.frexp(top)[1]
    t = np.ldexp(rows, -e, order="C")  # row-major, so sums run row after row
    if min(p, q) <= 1:
        s = np.sqrt(np.sum(t * t, axis=0))
    elif p == q == 2:  # [[a, b], [c, d]]: two non-negative terms, nothing cancels
        a, c, b, d = t
        s = (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    else:
        finite = np.isfinite(top)  # the solvers refuse NaN: such a matrix gets its entry back
        t[:, ~finite] = 0.0
        if min(p, q) == 3:  # the smaller Gram, r[i] row (p <= q) or column i of each matrix
            r = t.reshape(q, p, k)
            r = np.swapaxes(r, 0, 1) if p <= q else r
            lam = _jacobi_top_eigenvalue({(i, j): np.einsum("nk,nk->k", r[i], r[j])
                                          for i in range(3) for j in range(i, 3)})
        else:
            y = t.reshape(q, p, k).T
            gram = y @ np.swapaxes(y, 1, 2) if p <= q else np.swapaxes(y, 1, 2) @ y
            lam = np.linalg.eigvalsh(gram)[:, -1]
        s = np.where(finite, np.sqrt(lam), top)
    return np.ldexp(s, e)


#: cyclic Jacobi sweeps: the off-diagonal part that three leave (4e5 eps on
#: the norm of random blocks) a fourth, quadratically convergent, takes
#: below rounding; tests/test_linalg.py holds the norm to 8 eps of the SVD
_JACOBI_SWEEPS = 4


def _jacobi_top_eigenvalue(a):
    """Largest eigenvalue of each symmetric 3 x 3 matrix of a stack, given by
    its upper entries a[i, j] of order one: cyclic Jacobi, a rotation being a
    few ufunc passes in place of a LAPACK call per matrix (Demmel and Veselic,
    "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal. Appl. 1992)."""
    for _ in range(_JACOBI_SWEEPS):
        for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            d, h = a[j, j] - a[i, i], a[i, j] + a[i, j]
            # tan of the smaller angle that zeroes a[i, j]; 0 where d = h = 0
            t = h / np.copysign(np.sqrt(d * d + h * h) + np.abs(d) + 5e-324, d)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s, h = t * c, t * a[i, j]
            a[i, i], a[j, j], a[i, j] = a[i, i] - h, a[j, j] + h, 0.0
            ri, rj = (min(r, i), max(r, i)), (min(r, j), max(r, j))
            a[ri], a[rj] = c * a[ri] - s * a[rj], s * a[ri] + c * a[rj]
    return np.maximum(np.maximum(a[0, 0], a[1, 1]), a[2, 2])


def check_orthonormal(bases, name="basis"):
    """Refuse a (k, d, p) stack of bases unless every one has orthonormal
    columns, with one batched norm of the Gram residuals."""
    gram = np.swapaxes(bases, 1, 2) @ bases - np.eye(bases.shape[2])
    if not np.all(batched_spectral_norms(gram) <= ORTHONORMAL_TOL):  # NaN fails too
        raise ConfigError(f"{name} columns are not orthonormal")


def pow2_scale(x, out=None):
    """Scale block n of an entry-major stack, the entries x[..., n], by 2^-e
    into out (x itself by default), e frexp's exponent of its largest |entry|:
    exact, the largest entry then in [0.5, 1).  Returns e, 0 for a zero block."""
    e = np.frexp(np.maximum.reduce(np.abs(x).reshape(math.prod(x.shape[:-1]), x.shape[-1])))[1]
    np.ldexp(x, -e, out=x if out is None else out)
    return e


def renormalized_product(mats, log_scales):
    """The product of exp(log_scales[j]) * mats[j], last step leftmost, as
    (log_scale, M) with M of unit spectral norm.

    A pairwise tree, log2 W batched matmuls (an odd level padded with the
    identity); each step and each partial product is rescaled by the power
    of two of its largest entry, exactly and with the exponents summed as
    ints, so doubly exponential windows and steps stored with entries far
    from 1 stay in range.  A collapse to zero or a -inf log scale gives
    (-inf, 0), an empty window (0, Id).
    """
    d = mats.shape[1]
    r = np.empty_like(mats)
    e = int(np.sum(pow2_scale(mats[::-1].T, out=r.T)))
    while r.shape[0] > 1:
        if r.shape[0] % 2:
            r = np.concatenate([r, np.eye(d)[None]])
        r = r[0::2] @ r[1::2]
        e += int(np.sum(pow2_scale(r.T)))
    if r.shape[0] == 0:
        return 0.0, np.eye(d)
    s = spectral_norm(r[0])
    if s == 0.0 or np.any(log_scales == -math.inf):
        return -math.inf, np.zeros((d, d))
    return float(np.sum(log_scales)) + (e * math.log(2.0) + math.log(s)), r[0] / s


def row_norms(x):
    """Euclidean norm of each row (last axis) of a matrix or a stack.  A row
    whose squares overflow or go subnormal is scaled by its largest entry
    first, so a norm that fits in a double never reads as inf and keeps its
    digits below 1.5e-154."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(x, axis=-1)
        redo = np.isinf(out) | (out < _SQRT_TINY)
        if redo.any():
            top = np.max(np.abs(x), axis=-1, initial=0.0)
            redo &= np.isfinite(top) & (top > 0.0)
            out[redo] = top[redo] * np.linalg.norm(x[redo] / top[redo, None], axis=1)
    return out


def _fix_column_signs(q):
    # make the largest-magnitude entry of each column positive (per matrix);
    # one matrix flips only its negative (and NaN) pivots' columns, same bits
    if q.size == 0:
        return q
    idx = np.argmax(np.abs(q), axis=-2)
    if q.ndim > 2:
        signs = np.sign(np.take_along_axis(q, idx[..., None, :], axis=-2))
        signs[signs == 0] = 1.0
        return q * signs
    out = q.copy(order="K")
    for j, i in enumerate(idx.tolist()):
        s = q[i, j]
        if not s >= 0.0:
            out[:, j] *= -1.0 if s < 0.0 else s
    return out


def rowspace_basis(a, rank):
    """Orthonormal basis (columns) of the row space of ``a``."""
    return _fix_column_signs(_svd(_umath_linalg.svd_f, np.asarray(a, dtype=float))[2][:rank].T)


def _pivot_signs(h):
    """qr_pos's sign rule on LAPACK's raw QR factors h, of any stack: each
    pivot's sign (R's diagonal as dgeqrf leaves it), 1 for 0 and NaN for NaN."""
    s = np.sign(h.diagonal(0, -2, -1))
    s[s == 0] = 1.0
    return s


def qr_pos(a):
    """QR with the R diagonal forced nonnegative (unique thin factorization);
    for a (k, m, n) stack, of each matrix."""
    h = np.array(a, dtype=float)  # the gufunc factors in place
    tau = _umath_linalg.qr_r_raw(h)
    q = _umath_linalg.qr_reduced(h, tau)
    s = _pivot_signs(h)
    return q * s[..., None, :], np.triu(h[..., :tau.shape[-1], :]) * s[..., :, None]


def principal_angles(a, b):
    """Principal angles (radians, ascending) between the spans of orthonormal
    bases a and b, refused by check_orthonormal otherwise; for (k, d, p) and
    (k, d, q) stacks, a (k, min(p, q)) array.  scipy.linalg.subspace_angles
    past its orth step, batched: cosines by SVD of a^T b, sines by SVD of the
    residual, each angle read from the sine where its own cosine squared >= 0.5."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == 2:
        return principal_angles(a[None], b[None])[0]
    check_orthonormal(a, "first basis")
    check_orthonormal(b, "second basis")
    cos = np.swapaxes(a, -1, -2) @ b
    sigma = np.linalg.svd(cos, compute_uv=False)
    if a.shape[-1] >= b.shape[-1]:
        rest = b - a @ cos
    else:
        rest = a - b @ np.swapaxes(cos, -1, -2)
    mask = sigma[..., ::-1] ** 2 >= 0.5
    sines = 0.0
    if mask.any():
        sines = np.arcsin(np.clip(np.linalg.svd(rest, compute_uv=False), -1.0, 1.0))
    theta = np.where(mask, sines, np.arccos(np.clip(sigma[..., ::-1], -1.0, 1.0)))
    return np.sort(theta, axis=-1)


def max_principal_angle(a, b):
    """Largest principal angle, 0.0 where a span is empty; per pair for stacks."""
    top = np.max(principal_angles(a, b), axis=-1, initial=0.0)
    return float(top) if top.ndim == 0 else top


def haar_orthogonal(rng, d):
    """Haar-distributed orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    if d == 0:
        return np.zeros((0, 0))
    g = rng.standard_normal((d, d))
    q, _ = qr_pos(g)
    return q


def haar_stack(seed, stream, n0, count, d):
    """haar_orthogonal for n = n0 .. n0 + count - 1, each from its own
    default_rng([seed, stream, n mod 2**32]) (seed words must be non-negative),
    bit for bit, by one sign-fixed QR of the stacked draws."""
    return qr_pos(np.stack([np.random.default_rng([int(seed), stream, (n0 + i) % 2**32])
                            .standard_normal((d, d)) for i in range(count)]))[0]


def random_bounded_cond(rng, d, cond):
    """Random invertible matrix with condition number exactly ``cond`` (d >= 2).

    Singular values are log-spaced in [cond**-0.5, cond**0.5] so the spectral
    condition number equals ``cond``; for d == 1 the matrix is (1).
    """
    if cond < 1.0:
        raise ValueError("condition bound must be >= 1")
    if d == 1 or cond == 1.0:
        return np.eye(d)
    u = haar_orthogonal(rng, d)
    v = haar_orthogonal(rng, d)
    sig = cond ** np.linspace(-0.5, 0.5, d)
    return (u * sig) @ v.T


def slope_intercept(x, y):
    """Least-squares line fit returning (slope, intercept).

    Centered normal equations; requires at least two distinct abscissae.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points")
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    denom = float(dx @ dx)
    if denom == 0.0:
        raise ValueError("degenerate abscissae")
    slope = float(dx @ (y - ym)) / denom
    return slope, ym - slope * xm


def logsumexp(terms):
    """log(sum(exp(terms))) with the max factored out, NaN terms dropped; -inf
    for empty input.  Of each row of a 2-D array, with the bits of one call
    per row (a row that holds a NaN takes that path)."""
    t = np.asarray(terms, dtype=float)
    if t.ndim == 2:
        m = np.max(t, axis=1, initial=-math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):  # a row of no finite max: m
            out = np.where(np.isfinite(m), m + np.log(np.sum(np.exp(t - m[:, None]), axis=1)), m)
        out[np.isnan(m)] = [logsumexp(r) for r in t[np.isnan(m)]]
        return out
    t = t[~np.isnan(t)]
    if t.size == 0:
        return float("-inf")
    m = float(np.max(t))
    if m == float("-inf"):
        return float("-inf")
    if m == float("inf"):
        return float("inf")
    return m + float(np.log(np.sum(np.exp(t - m))))
