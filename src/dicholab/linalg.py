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
    form up to rank 2, else as the root of the smaller Gram's top eigenvalue.
    It works on the rows ``stack.T``, one per entry and one column per
    matrix, read in place where the stack transposes an entry-major array."""
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
        finite = np.isfinite(top)  # the solver refuses NaN: such a matrix gets its entry back
        t[:, ~finite] = 0.0
        y = t.reshape(q, p, k).T
        gram = y @ np.swapaxes(y, 1, 2) if p <= q else np.swapaxes(y, 1, 2) @ y
        s = np.where(finite, np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), top)
    return np.ldexp(s, e)


def check_orthonormal(bases, name="basis"):
    """Refuse a (k, d, p) stack of bases unless every one has orthonormal
    columns, with one batched norm of the Gram residuals."""
    gram = np.swapaxes(bases, 1, 2) @ bases - np.eye(bases.shape[2])
    if np.any(batched_spectral_norms(gram) > ORTHONORMAL_TOL):
        raise ConfigError(f"{name} columns are not orthonormal")


def renormalized_product(mats, log_scales):
    """The product of exp(log_scales[j]) * mats[j], last step leftmost, as
    (log_scale, M) with M of unit spectral norm.

    Renormalizes after every step, so products over doubly exponential
    windows never leave the representable range.  A product that collapses
    to zero, or meets a -inf log scale, gives (-inf, 0).
    """
    c = 0.0
    r = np.eye(mats.shape[1])
    for j in range(mats.shape[0]):
        r = mats[j] @ r
        s = spectral_norm(r)
        if s == 0.0 or log_scales[j] == -math.inf:
            return -math.inf, np.zeros_like(r)
        r = r / s
        c += float(log_scales[j]) + math.log(s)
    return c, r


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


def qr_pos(a):
    """QR with the R diagonal forced nonnegative (unique thin factorization);
    for a (k, m, n) stack, of each matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        # R and the Householder vectors share one array: zero R's copy only
        h, tau = _lapack(dgeqrf, a)[:2]
        r = np.array(h[:tau.size], order="C")
        for i in range(1, tau.size):
            r[i, :i] = 0.0
        q = np.ascontiguousarray(_lapack(dorgqr, h[:, :tau.size], tau)[0])
        # flip only the negative (and NaN) pivots: the same bits as below
        for i, s in enumerate(np.diagonal(r).tolist()):
            if not s >= 0.0:
                s = -1.0 if s < 0.0 else s
                q[:, i] *= s
                r[i] *= s
        return q, r
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
