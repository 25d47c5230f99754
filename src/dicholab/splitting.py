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
from .dichotomy import (
    DichotomyCertificate,
    ProjectionFamily,
    VerifyReport,
    fit_certificate,
    stable_slack_grid,
    unstable_slack_grid,
    verify_dichotomy,
)
from .linalg import (
    _fix_column_signs,
    max_principal_angle,
    nullspace_basis,
    principal_angles,
    qr_pos,
    spectral_norm,
)
from .rates import GrowthRate, NuSequence
from .system import LinearSystem, evolution_scaled

GAP_THRESHOLD = 0.2
#: singular values below this fraction of the largest are re-resolved on a
#: reduced system instead of being trusted
RELIABLE_REL = 1e-10
COND_LIMIT = 1e12
ANGLE_EQ_TOL = 1e-8
MAX_LEVELS = 32
#: smallest over largest |R_ii| below which a propagated frame has lost rank
RANK_LOSS_TOL = 1e-12


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a stable or unstable subspace at one index."""

    n: int
    role: str
    basis: np.ndarray = field(repr=False)
    growth_exponents: np.ndarray = field(repr=False)
    gap: float = math.nan

    def __post_init__(self):
        if self.role not in ("stable", "unstable"):
            raise ConfigError(f"unknown role {self.role!r}")
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ConfigError("basis must be a d x k matrix")
        if b.shape[1]:
            gram = b.T @ b - np.eye(b.shape[1])
            if spectral_norm(gram) > 1e-12:
                raise ConfigError("basis columns are not orthonormal")
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
    red_ls = np.empty(steps)
    for j in range(steps):
        q, rr = qr_pos(mats[j] @ q)
        r22 = rr[p - k:, p - k:]
        s = spectral_norm(r22)
        if s == 0.0:
            red_mats[j] = 0.0
            red_ls[j] = -np.inf
        else:
            red_mats[j] = r22 / s
            red_ls[j] = float(log_scales[j]) + math.log(s)
    return red_mats, red_ls


def _window_exponents(mats, log_scales, denom, depth=MAX_LEVELS):
    """Per-direction exponents (descending) and directions at the window
    start, resolved recursively below the float trust floor."""
    steps = mats.shape[0]
    p = mats.shape[1]
    c = 0.0
    r = np.eye(p)
    for j in range(steps):
        r = mats[j] @ r
        s = spectral_norm(r)
        if s == 0.0 or log_scales[j] == float("-inf"):
            return np.full(p, -np.inf), np.eye(p)
        r = r / s
        c += float(log_scales[j]) + math.log(s)

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
    if rate.window != sys.window:
        raise ConfigError("rate window differs from system window")
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
                    cutoff: float | None = None,
                    horizon: int = 1) -> SubspaceBasis:
    """Directions at n whose forward orbits decay relative to the rate."""
    if sys.window[1] - n < horizon:
        raise ConfigError(
            f"anchor {n} has forward extent {sys.window[1] - n}, need {horizon}"
        )
    rho, vecs = classify_directions(sys, n, rate)
    n_u, gap, _ = _split_exponents(rho, gap_threshold, cutoff)
    return SubspaceBasis(n=n, role="stable", basis=vecs[:, n_u:],
                         growth_exponents=rho[n_u:], gap=gap)


def infer_z_candidate(sys: LinearSystem, rate: GrowthRate,
                      gap_threshold: float = GAP_THRESHOLD) -> np.ndarray:
    """Candidate initial unstable subspace: the fast cluster at the left end."""
    rho, vecs = classify_directions(sys, sys.window[0], rate)
    n_u, _, _ = _split_exponents(rho, gap_threshold, None)
    return vecs[:, :n_u]


def _propagate_forward(sys: LinearSystem, basis: np.ndarray, n_from: int, n_to: int):
    """Forward image of a subspace under the unit-scaled steps, re-orthonormalized
    per step; rank loss means the dynamics is not injective on it."""
    q = basis
    for k in range(n_from, n_to):
        i = sys.step_index(k)
        m = sys.mats[i] @ q
        q, r = qr_pos(m)
        diag = np.abs(np.diag(r))
        top = float(np.max(diag)) if diag.size else 0.0
        if q.shape[1] and (top == 0.0 or float(np.min(diag)) <= RANK_LOSS_TOL * top
                           or sys.log_scales[i] == float("-inf")):
            raise KernelSingularError(
                f"forward image of the unstable subspace loses rank at n={k}"
            )
    return q


def unstable_subspace(sys: LinearSystem, n: int, rate: GrowthRate,
                      gap_threshold: float = GAP_THRESHOLD,
                      z_basis=None, cutoff: float | None = None) -> SubspaceBasis:
    """Directions reachable from the initial subspace (half-line) or carried
    by the fast cluster of the whole window (full line), at index n."""
    if n < sys.window[0] or n > sys.window[1]:
        raise ConfigError(f"index {n} outside window {sys.window}")
    if rate.window != sys.window:
        raise ConfigError("rate window differs from system window")
    if sys.domain == "one_sided":
        if z_basis is None:
            z = infer_z_candidate(sys, rate, gap_threshold)
        else:
            z = np.asarray(z_basis, dtype=float)
            if z.ndim != 2 or z.shape[0] != sys.dim:
                raise ConfigError("Z basis must be a d x k matrix")
            if z.shape[1]:
                z = qr_pos(z)[0]
        basis = _propagate_forward(sys, z, sys.window[0], n)
        gap = math.nan
        if n < sys.window[1] and z.shape[1]:
            i0 = n - sys.window[0]
            red_mats, red_ls = _reduce_frame(sys.mats[i0:], sys.log_scales[i0:],
                                             basis, z.shape[1])
            denom = float(rate.log_values[-1] - rate.log_values[i0])
            rho, _ = _window_exponents(red_mats, red_ls, denom)
        else:
            rho = np.full(z.shape[1], np.nan)
        return SubspaceBasis(n=n, role="unstable", basis=basis,
                             growth_exponents=rho, gap=gap)

    rho, vecs = classify_directions(sys, sys.window[0], rate)
    n_u, gap, _ = _split_exponents(rho, gap_threshold, cutoff)
    basis = _propagate_forward(sys, vecs[:, :n_u], sys.window[0], n)
    return SubspaceBasis(n=n, role="unstable", basis=basis,
                         growth_exponents=rho[:n_u], gap=gap)


def build_projections(stable_bases, unstable_bases) -> ProjectionFamily:
    """Oblique projections onto the stable subspaces along the unstable ones."""
    if len(stable_bases) != len(unstable_bases) or not stable_bases:
        raise ConfigError("need matching stable/unstable bases at every index")
    ns = [b.n for b in stable_bases]
    if ns != [b.n for b in unstable_bases]:
        raise ConfigError("stable and unstable bases are at different indices")
    if ns != list(range(ns[0], ns[0] + len(ns))):
        raise ConfigError("bases must cover a contiguous index range")
    d = stable_bases[0].basis.shape[0]
    d_s = stable_bases[0].dim
    projs = np.empty((len(ns), d, d))
    for i, (sb, ub) in enumerate(zip(stable_bases, unstable_bases)):
        if sb.dim + ub.dim != d:
            raise SplittingDegenerateError(
                f"subspace dimensions {sb.dim}+{ub.dim} do not fill dimension {d} "
                f"at n={sb.n}"
            )
        b = np.hstack([sb.basis, ub.basis])
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > COND_LIMIT:
            raise SplittingDegenerateError(
                f"stable and unstable subspaces are nearly dependent at n={sb.n} "
                f"(condition {sv[0] / max(sv[-1], 5e-324):.3e})"
            )
        inv = np.linalg.solve(b, np.eye(d))
        projs[i] = b[:, :d_s] @ inv[:d_s, :]
    return ProjectionFamily(window=(ns[0], ns[-1]), projections=projs, stable_rank=d_s)


@dataclass(frozen=True)
class SZeroBetaCheck:
    """Comparison of the zero-cutoff and shifted-cutoff stable subspaces."""

    beta: float
    basis_s0: SubspaceBasis
    basis_sbeta: SubspaceBasis
    equal: bool
    max_angle: float

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "dim_s0": self.basis_s0.dim,
            "dim_sbeta": self.basis_sbeta.dim,
            "equal": bool(self.equal),
            "max_angle": self.max_angle,
            "exponents_s0": self.basis_s0.growth_exponents.tolist(),
            "exponents_sbeta": self.basis_sbeta.growth_exponents.tolist(),
        }


def s_beta_zero_check(sys: LinearSystem, rate: GrowthRate, beta: float,
                      gap_threshold: float = GAP_THRESHOLD) -> SZeroBetaCheck:
    """Do plain boundedness and beta-weighted boundedness pick the same
    initial stable subspace?  Weighted boundedness moves the exponent cutoff
    from 0 to -beta, so the two differ exactly when a direction grows at a
    rate between them."""
    if sys.domain != "one_sided":
        raise ConfigError("the initial-subspace check is a half-line notion")
    if not beta > 0:
        raise ConfigError("beta must be positive")
    n0_basis = stable_subspace(sys, sys.window[0], rate, gap_threshold, cutoff=0.0)
    nb_basis = stable_subspace(sys, sys.window[0], rate, gap_threshold, cutoff=-float(beta))
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
    """Geometry of the recovered splitting plus the kernel-bound supremum."""

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
    stable_bases: tuple = field(repr=False, default=())
    unstable_bases: tuple = field(repr=False, default=())

    def to_json(self) -> dict:
        def f(x):
            return float(x) if math.isfinite(x) else None

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
    if rate.window != sys.window or nu.window != sys.window:
        raise ConfigError("rate/nu windows differ from system window")
    w = sys.window[1] - sys.window[0]
    if tail_horizon is None:
        tail_horizon = min(30, max(3, w // 5))
    tail_horizon = min(tail_horizon, w - 1) if w > 1 else 0
    n_t = sys.window[1] - tail_horizon
    if n_t <= sys.window[0]:
        n_t = sys.window[0] + 1

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
    stable_bases: list[SubspaceBasis] = []
    cur = anchor_vecs[:, d_u:]
    rho_stable = anchor_rho[d_u:]
    stable_bases.append(SubspaceBasis(n=n_t, role="stable", basis=cur,
                                      growth_exponents=rho_stable, gap=anchor_gap))
    for n in range(n_t - 1, n_b - 1, -1):
        i = sys.step_index(n)
        pi_next = cur @ cur.T
        g = (np.eye(d) - pi_next) @ sys.mats[i]
        cur = nullspace_basis(g, d_s)
        stable_bases.append(SubspaceBasis(n=n, role="stable", basis=cur,
                                          growth_exponents=rho_stable,
                                          gap=anchor_gap))
    stable_bases.reverse()

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
    unstable_bases: list[SubspaceBasis] = []
    q = z0
    unstable_bases.append(SubspaceBasis(n=n_b, role="unstable", basis=q,
                                        growth_exponents=rho_unstable, gap=u_gap))
    for n in range(n_b, n_t):
        q = _stage("unstable_subspace", _propagate_forward, sys, q, n, n + 1)
        unstable_bases.append(SubspaceBasis(n=n + 1, role="unstable", basis=q,
                                            growth_exponents=rho_unstable,
                                            gap=u_gap))

    proj = _stage("build_projections", build_projections,
                  stable_bases, unstable_bases)

    trimmed = (n_b, n_t)
    sys_r = sys.restrict(*trimmed)
    rate_r = rate.restrict(*trimmed)
    nu_r = nu.restrict(*trimmed)

    cert = _stage("fit_certificate", fit_certificate, sys_r, proj, rate_r, nu_r)
    report = _stage("verify_dichotomy", verify_dichotomy,
                    sys_r, proj, rate_r, nu_r, cert.D, cert.lam)

    beta_star = (cert.lam - cert.eps) / 2.0
    g_s = stable_slack_grid(sys_r, proj, rate_r, nu_r, beta_star)
    g_u = unstable_slack_grid(sys_r, proj, rate_r, nu_r, -beta_star)[0].copy()
    a = g_u.shape[0]
    g_u[np.arange(a), np.arange(a)] = np.nan
    vals = np.concatenate([g_s[np.isfinite(g_s)].ravel(), g_u[np.isfinite(g_u)].ravel()])
    log_green = float(np.max(vals)) if vals.size else -math.inf
    green_sup = math.exp(log_green) if log_green < 700 else math.inf

    angles = np.empty(a)
    norms = np.empty(a)
    for i in range(a):
        sb = stable_bases[i].basis
        ub = unstable_bases[i].basis
        if sb.shape[1] == 0 or ub.shape[1] == 0:
            angles[i] = math.pi / 2.0
        else:
            angs = principal_angles(sb, ub)
            angles[i] = float(angs[0]) if angs.size else math.pi / 2.0
        norms[i] = proj.norm_at(trimmed[0] + i)

    splitting = SplittingReport(
        window=trimmed, original_window=sys.window,
        gap=float(min(anchor_gap, u_gap)) if math.isfinite(u_gap) else float(anchor_gap),
        min_angle=float(np.min(angles)), verdict="pass",
        green_bound_sup=green_sup, green_beta=float(beta_star),
        min_angles=angles, proj_norms=norms,
        rho_stable=np.asarray(rho_stable, dtype=float),
        rho_unstable=np.asarray(rho_unstable, dtype=float),
        stable_bases=tuple(stable_bases), unstable_bases=tuple(unstable_bases),
    )
    return CharacterizeResult(projections=proj, certificate=cert,
                              splitting=splitting, verify=report,
                              system=sys_r, rate=rate_r, nu=nu_r)
