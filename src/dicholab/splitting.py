"""Construct stable/unstable families from the dynamics alone.

Direction exponents come from the SVD of the scaled window transition.  A
long window collapses the smaller singular values below float resolution,
so classification recurses: directions whose singular values fall under the
trust floor span a slow bundle, the dynamics is reduced to that bundle with
a moving orthonormal frame (per-step QR), and the reduced window product is
classified again.  Each level strips at least one direction, so the
recursion terminates and every exponent is eventually measured at full
float accuracy.

Family construction respects error flow.  Stable subspaces are anchored
near the right end of the window and chained backwards through preimages,
where errors contract; propagating a stable basis forwards would amplify
them by the full spectral spread per step.  Unstable subspaces propagate
forwards, which is the contracting direction for them.  The last few
indices cannot be certified at all (no forward data is left to tell slow
from fast), so the assembled family lives on a trimmed window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnalysisError,
    ConfigError,
    KernelSingularError,
    NoGapError,
    SplittingDegenerateError,
)
from .admissibility import operator_norm_sup
from .dichotomy import (
    DichotomyCertificate,
    ProjectionFamily,
    VerifyReport,
    fit_certificate,
    verify_dichotomy,
)
from .linalg import (
    ANGLE_EQ_TOL,
    _fix_column_signs,
    check_orthonormal,
    max_principal_angle,
    nullspace_basis,
    principal_angles,
    qr_pos,
    renormalized_product,
    spectral_norm,
)
from .rates import GrowthRate, NuSequence, check_aligned
from .system import LinearSystem, evolution_scaled, finite_or_none

GAP_THRESHOLD = 0.2
#: singular values below this fraction of the largest are re-resolved on a
#: reduced system instead of being trusted
RELIABLE_REL = 1e-10
COND_LIMIT = 1e12
MAX_LEVELS = 32
#: smallest over largest |R_ii| below which a propagated frame has lost rank
RANK_LOSS_TOL = 1e-12


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a stable subspace at one index."""

    n: int
    basis: np.ndarray = field(repr=False)
    growth_exponents: np.ndarray = field(repr=False)
    gap: float = math.nan

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ConfigError("basis must be a d x k matrix")
        check_orthonormal(b[None])
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "growth_exponents",
                           np.asarray(self.growth_exponents, dtype=float))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _reduce_frame(mats, log_scales, q, k):
    """Scaled dynamics of the trailing k columns of a moving orthonormal frame.

    The whole frame q is propagated and the block is read off the trailing
    corner of R: each QR step re-orthogonalizes against the leading columns,
    so the trailing directions are measured modulo them and eps-level
    leakage into them cannot compound over the window.
    """
    steps = mats.shape[0]
    p = q.shape[1]
    red_mats = np.empty((steps, k, k))
    for j in range(steps):
        q, rr = qr_pos(mats[j] @ q)
        red_mats[j] = rr[p - k:, p - k:]
    norms = spectral_norm(red_mats)
    live = np.flatnonzero(norms)
    red_mats[live] /= norms[live, None, None]
    red_mats[norms == 0.0] = 0.0
    red_ls = np.full(steps, -np.inf)
    red_ls[live] = [float(log_scales[j]) + math.log(norms[j]) for j in live]
    return red_mats, red_ls


def _window_exponents(mats, log_scales, denom, depth=MAX_LEVELS):
    """Per-direction exponents (descending) and directions at the window
    start, resolved recursively below the float trust floor."""
    p = mats.shape[1]
    c, r = renormalized_product(mats, log_scales)
    if c == -math.inf:
        return np.full(p, -np.inf), np.eye(p)

    _, svals, vt = np.linalg.svd(r)
    vecs = _fix_column_signs(vt.T)
    with np.errstate(divide="ignore"):
        rho = (c + np.log(svals)) / denom

    reliable = svals >= svals[0] * RELIABLE_REL
    k = int(p - np.sum(reliable))
    if k == 0 or k == p or depth <= 0:
        return rho, vecs

    bottom = vecs[:, p - k:]
    red_mats, red_ls = _reduce_frame(mats, log_scales, vecs, k)
    rho_sub, vecs_sub = _window_exponents(red_mats, red_ls, denom, depth - 1)
    rho_all = np.concatenate([rho[: p - k], rho_sub])
    vecs_all = np.hstack([vecs[:, : p - k], bottom @ vecs_sub])
    order = np.argsort(-rho_all, kind="stable")
    return rho_all[order], vecs_all[:, order]


def classify_directions(sys: LinearSystem, n: int, rate: GrowthRate):
    """Exponents and directions at index n, measured over [n, window end]."""
    check_aligned(sys, rate)
    if n < sys.window[0] or n >= sys.window[1]:
        raise ConfigError(f"classification anchor {n} needs forward extent")
    i0 = n - sys.window[0]
    denom = float(rate.log_values[-1] - rate.log_values[i0])
    return _window_exponents(sys.mats[i0:], sys.log_scales[i0:], denom)


def _exponent_gap(upper, lower):
    """upper - lower, and 0 where the two are equal: two infinite exponents
    of one sign are one cluster, not a NaN gap."""
    return np.subtract(upper, lower, out=np.zeros(np.shape(upper)),
                       where=upper != lower)


def _split_exponents(rho, gap_threshold, cutoff):
    """Number of unstable directions, the separation, and the cut used.

    With an explicit cutoff every exponent must clear it by half the
    threshold.  Otherwise the cut goes at the largest gap that straddles
    zero; if no such gap exists the whole spectrum is one cluster and its
    sign decides, with exponents near zero rejected as unclassifiable.
    """
    rho = np.asarray(rho, dtype=float)
    if cutoff is not None:
        dist = float(np.min(np.abs(rho - cutoff))) if rho.size else math.inf
        if dist < gap_threshold / 2.0:
            raise NoGapError(
                f"no gap at cutoff {cutoff:g}: nearest exponent at distance {dist:.3g}"
            )
        return int(np.sum(rho > cutoff)), 2.0 * dist, float(cutoff)

    if rho.size >= 2:
        gaps = _exponent_gap(rho[:-1], rho[1:])
        best = None
        for i in range(gaps.size):
            if gaps[i] >= gap_threshold and rho[i + 1] < 0.0 < rho[i]:
                if best is None or gaps[i] > gaps[best]:
                    best = i
        if best is not None:
            mid = 0.5 * (rho[best] + rho[best + 1])
            return best + 1, float(gaps[best]), float(mid)

    margin = gap_threshold / 2.0
    finite = rho[np.isfinite(rho)]
    closest = float(np.min(np.abs(finite))) if finite.size else math.inf
    if np.all(rho <= -margin):
        return 0, 2.0 * closest, 0.0
    if np.all(rho >= margin):
        return rho.size, 2.0 * closest, 0.0
    raise NoGapError(
        "no reliable splitting: exponents "
        f"{np.array2string(rho, precision=3)} have no gap straddling zero"
    )


def _pinned_gap(rho, d_u, gap_threshold):
    """Separation when the cut position is dictated by a known dimension."""
    if d_u == 0 or d_u == rho.size:
        return math.inf
    gap = float(_exponent_gap(rho[d_u - 1], rho[d_u]))
    if gap < gap_threshold:
        raise NoGapError(
            f"exponent gap {gap:.3g} at pinned dimension {d_u} is below "
            f"threshold {gap_threshold:g}"
        )
    return gap


def stable_subspace(sys: LinearSystem, n: int, rate: GrowthRate,
                    gap_threshold: float = GAP_THRESHOLD,
                    cutoff: float | None = None) -> SubspaceBasis:
    """Directions at n whose forward orbits decay relative to the rate."""
    return _split_basis(n, *classify_directions(sys, n, rate), gap_threshold, cutoff)


def _split_basis(n, rho, vecs, gap_threshold, cutoff) -> SubspaceBasis:
    """The stable part of one classification, split at the cutoff."""
    n_u, gap, _ = _split_exponents(rho, gap_threshold, cutoff)
    return SubspaceBasis(n=n, basis=vecs[:, n_u:],
                         growth_exponents=rho[n_u:], gap=gap)


def _propagate_forward(sys: LinearSystem, basis: np.ndarray, n_from: int, n_to: int):
    """Forward images of a subspace under the unit-scaled steps at n_from ..
    n_to, re-orthonormalized per step; rank loss means the dynamics is not
    injective on it."""
    qs = [basis]
    for k in range(n_from, n_to):
        i = sys.step_index(k)
        q, r = qr_pos(sys.mats[i] @ qs[-1])
        diag = np.abs(np.diag(r))
        top = float(np.max(diag)) if diag.size else 0.0
        if q.shape[1] and (top == 0.0 or float(np.min(diag)) <= RANK_LOSS_TOL * top
                           or sys.log_scales[i] == float("-inf")):
            raise KernelSingularError(
                f"forward image of the unstable subspace loses rank at n={k}"
            )
        qs.append(q)
    return qs


def build_projections(stable, unstable, n0: int) -> ProjectionFamily:
    """Oblique projections onto the stable subspaces along the unstable ones,
    from (a, d, d_s) and (a, d, d_u) stacks of orthonormal bases whose first
    index is n0: one batched SVD condition check and one batched solve."""
    stable = np.asarray(stable, dtype=float)
    unstable = np.asarray(unstable, dtype=float)
    if (stable.ndim != 3 or unstable.ndim != 3 or min(stable.shape[:2]) < 1
            or stable.shape[:2] != unstable.shape[:2]):
        raise ConfigError("need (a, d, k) stable and unstable bases at every index")
    check_orthonormal(stable)
    check_orthonormal(unstable)
    a, d, d_s = stable.shape
    if d_s + unstable.shape[2] != d:
        raise SplittingDegenerateError(
            f"subspace dimensions {d_s}+{unstable.shape[2]} do not fill dimension {d} "
            f"at n={n0}")
    cols = np.concatenate([stable, unstable], axis=2)
    sv = np.linalg.svd(cols, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = np.flatnonzero((sv[:, -1] <= 0.0) | (sv[:, 0] / sv[:, -1] > COND_LIMIT))
    if bad.size:
        raise SplittingDegenerateError(
            f"stable and unstable subspaces are nearly dependent at n={n0 + bad[0]} "
            f"(condition {sv[bad[0], 0] / max(sv[bad[0], -1], 5e-324):.3e})")
    projs = cols[:, :, :d_s] @ np.linalg.solve(cols, np.eye(d)[None])[:, :d_s, :]
    return ProjectionFamily(window=(n0, n0 + a - 1), projections=projs, stable_rank=d_s)


@dataclass(frozen=True)
class SZeroBetaCheck:
    """Comparison of the zero-cutoff and shifted-cutoff stable subspaces."""

    beta: float
    basis_s0: SubspaceBasis
    basis_sbeta: SubspaceBasis
    equal: bool
    max_angle: float


def s_beta_zero_check(sys: LinearSystem, rate: GrowthRate, beta: float,
                      gap_threshold: float = GAP_THRESHOLD) -> SZeroBetaCheck:
    """Do plain boundedness and beta-weighted boundedness pick the same
    initial stable subspace?  Weighted boundedness moves the exponent cutoff
    from 0 to -beta, so the two differ exactly when a direction grows at a
    rate between them.  One classification serves both cutoffs."""
    if sys.domain != "one_sided":
        raise ConfigError("the initial-subspace check is a half-line notion")
    if not beta > 0:
        raise ConfigError("beta must be positive")
    n0 = sys.window[0]
    rho, vecs = classify_directions(sys, n0, rate)
    n0_basis = _split_basis(n0, rho, vecs, gap_threshold, 0.0)
    nb_basis = _split_basis(n0, rho, vecs, gap_threshold, -float(beta))
    if n0_basis.dim != nb_basis.dim:
        equal = False
        angle = math.pi / 2.0
    else:
        angle = max_principal_angle(n0_basis.basis, nb_basis.basis)
        equal = bool(angle <= ANGLE_EQ_TOL)
    return SZeroBetaCheck(beta=float(beta), basis_s0=n0_basis, basis_sbeta=nb_basis,
                          equal=equal, max_angle=float(angle))


@dataclass(frozen=True)
class SplittingReport:
    """Geometry of the recovered splitting plus the kernel-bound supremum:
    ``green_bound_sup`` is ``operator_norm_sup`` at ``green_beta``."""

    window: tuple[int, int]
    original_window: tuple[int, int]
    gap: float
    min_angle: float
    verdict: str
    green_bound_sup: float
    green_beta: float
    min_angles: np.ndarray = field(repr=False)
    proj_norms: np.ndarray = field(repr=False)
    rho_stable: np.ndarray = field(repr=False)
    rho_unstable: np.ndarray = field(repr=False)
    stable_bases: np.ndarray = field(repr=False)    # (a, d, d_s), read-only
    unstable_bases: np.ndarray = field(repr=False)  # (a, d, d_u), read-only

    def to_json(self) -> dict:
        f = finite_or_none
        return {
            "window": list(self.window),
            "original_window": list(self.original_window),
            "gap": f(self.gap),
            "min_angle": f(self.min_angle),
            "verdict": self.verdict,
            "green_bound_sup": f(self.green_bound_sup),
            "green_beta": self.green_beta,
            "stable_exponents": [f(x) for x in self.rho_stable],
            "unstable_exponents": [f(x) for x in self.rho_unstable],
            "per_n": [
                {"n": int(self.window[0] + i), "gap": f(self.gap),
                 "min_angle": f(self.min_angles[i]), "proj_norm": f(self.proj_norms[i])}
                for i in range(self.min_angles.size)
            ],
        }

    def table_columns(self):
        """Columns (n, gap, min_angle, proj_norm), one row per index."""
        n = np.arange(self.window[0], self.window[0] + self.min_angles.size)
        return n, np.full(n.size, self.gap), self.min_angles, self.proj_norms


@dataclass(frozen=True)
class CharacterizeResult:
    """The recovered family with its certificate and reports, and the system,
    rate and weights restricted to the family's trimmed window.  The family
    memoizes its decay march against that very system object, so callers
    that reuse the trio fold from it instead of marching again."""

    projections: ProjectionFamily
    certificate: DichotomyCertificate
    splitting: SplittingReport
    verify: VerifyReport
    system: LinearSystem
    rate: GrowthRate
    nu: NuSequence


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except AnalysisError as e:
        if str(e).startswith("[stage "):
            raise
        raise type(e)(f"[stage {name}] {e}") from e


def characterize(sys: LinearSystem, rate: GrowthRate, nu: NuSequence,
                 boundary_hint=None, gap_threshold: float = GAP_THRESHOLD,
                 tail_horizon: int | None = None) -> CharacterizeResult:
    """Pipeline from raw coefficients to a verified dichotomy certificate.

    boundary_hint, when given on a half-line system, is a basis of the
    initial unstable subspace; otherwise it is inferred from the exponent
    clusters.  The result lives on a right-trimmed window: the final indices
    never have enough forward data to certify their splitting.  Full-line
    systems are trimmed on the left as well, since the expanding bundle is
    pinned by its backward history and the first indices lack that margin.
    """
    check_aligned(sys, rate, nu)
    w = sys.window[1] - sys.window[0]
    if tail_horizon is None:
        tail_horizon = min(30, max(3, w // 5))
    tail_horizon = min(tail_horizon, w - 1) if w > 1 else 0
    n_t = sys.window[1] - tail_horizon

    d = sys.dim
    rho_all, vecs_all = _stage("stable_subspace", classify_directions,
                               sys, sys.window[0], rate)

    if sys.domain == "one_sided" and boundary_hint is not None:
        z = np.asarray(boundary_hint, dtype=float)
        if z.ndim != 2 or z.shape[0] != d:
            raise ConfigError("boundary hint must be a d x k basis")
        d_u = z.shape[1]
        _stage("stable_subspace", _pinned_gap, rho_all, d_u, gap_threshold)
    else:
        d_u, _, _ = _stage("stable_subspace", _split_exponents,
                           rho_all, gap_threshold, None)
    d_s = d - d_u

    n_b = sys.window[0]
    if sys.domain == "two_sided":
        n_b = min(sys.window[0] + tail_horizon, n_t - 1)

    # stable family: classify at the right anchor, then chain preimages left
    anchor_rho, anchor_vecs = _stage("stable_subspace", classify_directions,
                                     sys, n_t, rate)
    anchor_gap = _stage("stable_subspace", _pinned_gap,
                        anchor_rho, d_u, gap_threshold)
    a = n_t - n_b + 1
    stable = np.empty((a, d, d_s))
    cur = stable[-1] = anchor_vecs[:, d_u:]
    rho_stable = anchor_rho[d_u:]
    for i in range(a - 2, -1, -1):
        g = (np.eye(d) - cur @ cur.T) @ sys.mats[sys.step_index(n_b + i)]
        cur = stable[i] = nullspace_basis(g, d_s)

    # unstable family: anchored at the left edge of the certified window and
    # carried forward step by step
    if sys.domain == "one_sided" and boundary_hint is not None:
        z0 = qr_pos(np.asarray(boundary_hint, dtype=float))[0] if d_u else np.zeros((d, 0))
        u_gap = math.nan
    else:
        if n_b > sys.window[0]:
            # the expanding image of the left margin: its top singular
            # cluster pins the bundle to within the margin's decay
            _, prod = evolution_scaled(sys, n_b, sys.window[0])
            z0 = np.linalg.svd(prod)[0][:, :d_u]
        else:
            z0 = vecs_all[:, :d_u]
        u_gap = _pinned_gap(rho_all, d_u, gap_threshold) if d_u else math.inf
    rho_unstable = rho_all[:d_u]
    unstable = np.array(_stage("unstable_subspace", _propagate_forward, sys, z0, n_b, n_t))
    proj = _stage("build_projections", build_projections, stable, unstable, n_b)

    trimmed = (n_b, n_t)
    sys_r = sys.restrict(*trimmed)
    rate_r = rate.restrict(*trimmed)
    nu_r = nu.restrict(*trimmed)

    cert = _stage("fit_certificate", fit_certificate, sys_r, proj, rate_r, nu_r)
    report = _stage("verify_dichotomy", verify_dichotomy,
                    sys_r, proj, rate_r, nu_r, cert.D, cert.lam)

    beta_star = (cert.lam - cert.eps) / 2.0
    green_sup = operator_norm_sup(sys_r, proj, rate_r, nu_r, beta_star)[0]

    # one batched call over the trimmed window; an empty side is orthogonal
    angs = principal_angles(stable, unstable)
    angles = angs[:, 0] if angs.shape[1] else np.full(a, math.pi / 2.0)
    stable.flags.writeable = unstable.flags.writeable = False

    splitting = SplittingReport(
        window=trimmed, original_window=sys.window,
        gap=float(min(anchor_gap, u_gap)) if math.isfinite(u_gap) else float(anchor_gap),
        min_angle=float(np.min(angles)), verdict="pass",
        green_bound_sup=green_sup, green_beta=float(beta_star),
        min_angles=angles, proj_norms=proj.norms,
        rho_stable=np.asarray(rho_stable, dtype=float),
        rho_unstable=np.asarray(rho_unstable, dtype=float),
        stable_bases=stable, unstable_bases=unstable,
    )
    return CharacterizeResult(projections=proj, certificate=cert,
                              splitting=splitting, verify=report,
                              system=sys_r, rate=rate_r, nu=nu_r)
