"""Small shared linear-algebra helpers.

Everything here is deterministic: SVD/QR outputs are post-processed with a
fixed sign convention so that repeated runs (and different thread counts)
produce bit-identical bases.

One matrix goes to scipy's raw LAPACK wrappers, a stack to numpy: on the 3 x 3
steps of the splitting recurrences numpy's wrapper costs some 35 us around a
LAPACK call of 2-5 us.  Routines and layouts are numpy's, so the bits match; a
nonzero ``info`` raises ``np.linalg.LinAlgError`` as in numpy (``dgesdd``
flags a NaN entry with ``info = -4`` and zero singular values).  The one
norm kernel for stacks, ``batched_spectral_norms``, reads its rows where
the decay march holds them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr

from .errors import ConfigError

#: largest natural log whose exponential is still a finite double
LOG_MAX = math.log(np.finfo(float).max)
#: largest ||B^T B - Id|| a basis may show and still count as orthonormal
ORTHONORMAL_TOL = 1e-12
#: largest principal angle at which two spans count as the same subspace
ANGLE_EQ_TOL = 1e-8
#: below this Euclidean norm the squares summed were subnormal and lost digits
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _lapack(routine, *args, **kwargs):
    """A raw LAPACK wrapper's outputs without its trailing info, which must be 0."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info={info}")
    return out


def exp_or_inf(log_value: float) -> float:
    """exp(log_value) as a double, saturated to inf where it overflows."""
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
    return float(_lapack(dgesdd, a, compute_uv=0)[1][0])


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
    if np.any(batched_spectral_norms(gram) > ORTHONORMAL_TOL):
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
    identity); each partial product is rescaled by the power of two of its
    largest entry, exactly and with the exponents summed as ints, so doubly
    exponential windows stay in range.  A collapse to zero or a -inf log
    scale gives (-inf, 0), an empty window (0, Id).
    """
    d = mats.shape[1]
    r, e = mats[::-1], 0
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
    """Euclidean norm of each row of a matrix.  A row whose squares overflow
    or go subnormal is scaled by its largest entry first, so a norm that fits
    in a double never reads as inf and keeps its digits below 1.5e-154."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(x, axis=1)
        redo = np.isinf(out) | (out < _SQRT_TINY)
        if redo.any():
            top = np.max(np.abs(x), axis=1, initial=0.0)
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
    vt = np.ascontiguousarray(_lapack(dgesdd, np.asarray(a, dtype=float))[2])
    return _fix_column_signs(vt[:rank].T)


def nullspace_basis(a, nullity):
    """Orthonormal basis (columns) of the kernel of ``a``, dimension forced.

    The trailing ``nullity`` right singular vectors; the caller supplies the
    kernel dimension, so near-degenerate spectra cannot change the shape.
    """
    a = np.asarray(a, dtype=float)
    if nullity == 0:
        return np.zeros((a.shape[1], 0))
    vt = np.ascontiguousarray(_lapack(dgesdd, a)[2])
    return _fix_column_signs(vt[a.shape[1] - nullity:].T)


def _qr_signed(a, lo=0):
    """One matrix's QR by ``dgeqrf`` and ``dorgqr`` with qr_pos's sign rule:
    Q, the block of R from row and column lo on, and the pivots as LAPACK's
    factor holds them (R's diagonal up to sign); the rest of R is never built."""
    h, tau = _lapack(dgeqrf, a)[:2]
    q = np.ascontiguousarray(_lapack(dorgqr, h[:, :tau.size], tau)[0])
    # R and the Householder vectors share one array: zero R's copy only
    r = np.array(h[lo:tau.size, lo:], order="C")
    for i in range(1, r.shape[0]):
        r[i, :i] = 0.0
    # flip only the negative (and NaN) pivots: the same bits as the stack's rule
    pivots = np.diagonal(h).tolist()
    for i, s in enumerate(pivots):
        if not s >= 0.0:
            s = -1.0 if s < 0.0 else s
            q[:, i] *= s
            if i >= lo:
                r[i - lo] *= s
    return q, r, pivots


def qr_pos(a):
    """QR with the R diagonal forced nonnegative (unique thin factorization);
    for a (k, m, n) stack, of each matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        return _qr_signed(a)[:2]
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :], r * d[..., :, None]


def _orth(a):
    """Orthonormal bases of the column spans of a stack, cut at the rank
    scipy.linalg.orth uses (one rank per stack), with their contiguous
    transposes: the bases keep orth's Fortran layout, as BLAS rounds by it."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = np.amax(s, axis=-1, initial=0.0) * (np.finfo(float).eps * max(a.shape[-2:]))
    ranks = np.sum(s > tol[..., None], axis=-1)
    if np.any(ranks != ranks.max(initial=0)):
        raise ValueError("the matrices of a stack differ in rank")
    qt = np.ascontiguousarray(np.swapaxes(u[..., :ranks.max(initial=0)], -1, -2))
    return np.swapaxes(qt, -1, -2), qt


def principal_angles(a, b):
    """Principal angles (radians, ascending) between the column spans of a
    and b; for (k, d, p) and (k, d, q) stacks, a (k, min(p, q)) array.
    scipy.linalg.subspace_angles' algorithm, batched: cosines by SVD of
    Q_a^T Q_b, sines by SVD of the residual where a cosine squared >= 0.5."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 2:
        return principal_angles(a[None], b[None])[0]
    (qa, qat), (qb, _) = _orth(a), _orth(b)
    cos = qat @ qb
    sigma = np.linalg.svd(cos, compute_uv=False)
    if qa.shape[-1] >= qb.shape[-1]:
        rest = qb - qa @ cos
    else:
        rest = qa - qb @ np.swapaxes(cos, -1, -2)
    mask = sigma ** 2 >= 0.5
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
    """log(sum(exp(terms))) with the max factored out; -inf for empty input."""
    t = np.asarray(terms, dtype=float)
    t = t[~np.isnan(t)]
    if t.size == 0:
        return float("-inf")
    m = float(np.max(t))
    if m == float("-inf"):
        return float("-inf")
    if m == float("inf"):
        return float("inf")
    return m + float(np.log(np.sum(np.exp(t - m))))
