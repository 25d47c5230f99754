"""Verify dichotomy estimates for a projection family and fit constants.

Both decay estimates are checked on every window pair (m, n) in the log
domain: march once, fold many.  One march per (system, family) pair
renormalizes the running products after every step and keeps only the
per-step log-norm increments, on the family, keyed by the system object.  The
forward march runs in the family's range coordinates, one d_s x d_s block
F_j per step, and a rank-one side takes one logarithm per step in place of any
product.  The exponent lam enters through a per-step scalar alone (log step
scale + lam * d log mu), so each slack grid is a fold of the increments,
step by step, instead of one large subtraction at the end.  On systems whose
steps are exactly log-linear in the rate the increments cancel to 0.0 in
floating point, so exact models report exactly zero slack even where log mu
reaches 1e8 and a naive two-term subtraction would lose seven digits.  Both
marches read their blocks from one O(W) per-pair step record, and so does
the admissibility solver's Green recursion.

Slack grids are indexed [i_m, i_n] with NaN marking pairs outside the
estimate's triangle and -inf marking products that collapsed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError
from .linalg import _fix_column_signs, batched_spectral_norms, exp_or_inf, slope_intercept
from .rates import GrowthRate, NuSequence, check_aligned, window_index
from .system import LinearSystem, finite_or_none

IDEMPOTENCE_TOL = 1e-10
COMMUTING_TOL = 1e-10
SLACK_TOL = 1e-8
#: relative floor below which a complementary step block counts as singular
KERNEL_SING_TOL = 1e-10
#: relative headroom added to the fitted envelope constant so that
#: re-verification with the fitted certificate lands strictly below zero
ENVELOPE_MARGIN = 1e-12
#: largest log envelope a fit accepts, a little below the double range so
#: that D = exp(log envelope) * (1 + ENVELOPE_MARGIN) stays finite
LOG_ENVELOPE_MAX = 700.0


@dataclass(frozen=True)
class ProjectionFamily:
    """Projections P_n for every index of a window, constant stable rank.
    ``ranges`` (W+1, d, stable_rank) and ``kernels`` (W+1, d, d - stable_rank)
    stack orthonormal bases of each P_n's range and kernel, read-only."""

    window: tuple[int, int]
    projections: np.ndarray = field(repr=False)
    stable_rank: int

    def __post_init__(self):
        n_min, n_max = self.window
        a = n_max - n_min + 1
        p = np.asarray(self.projections, dtype=float)
        if p.ndim != 3 or p.shape[0] != a or p.shape[1] != p.shape[2]:
            raise ConfigError("projections must be a (window+1, d, d) array")
        if not np.all(np.isfinite(p)):
            raise ConfigError("projections must be finite")
        d = p.shape[1]
        if not 0 <= self.stable_rank <= d:
            raise ConfigError("stable rank out of range")
        norms = batched_spectral_norms(p)
        resid = batched_spectral_norms(p @ p - p) / np.maximum(1.0, norms) ** 2
        worst = int(np.argmax(resid))
        if resid[worst] > IDEMPOTENCE_TOL:
            raise ConfigError(
                f"projection at n={n_min + worst} is not idempotent "
                f"(residual {resid[worst]:.3e})"
            )
        # nonzero singular values of an idempotent are >= 1, so 0.5 separates
        u, svals, vt = np.linalg.svd(p)
        ranks = np.sum(svals > 0.5, axis=1)
        if np.any(ranks != self.stable_rank):
            bad = int(np.argmax(ranks != self.stable_rank))
            raise ConfigError(
                f"projection rank changes: {ranks[bad]} at n={n_min + bad}, "
                f"expected {self.stable_rank}"
            )
        ranges = _fix_column_signs(u[:, :, :self.stable_rank])
        kernels = _fix_column_signs(np.swapaxes(vt[:, self.stable_rank:], 1, 2))
        ranges.flags.writeable = kernels.flags.writeable = False
        object.__setattr__(self, "projections", p)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "_sweep", None)
        object.__setattr__(self, "_steps", None)

    @property
    def dim(self) -> int:
        return self.projections.shape[1]

    def index(self, n: int) -> int:
        return window_index(self.window, n)

    def matrix_at(self, n: int) -> np.ndarray:
        return self.projections[self.index(n)]

    def norm_at(self, n: int) -> float:
        return float(self._norms[self.index(n)])

    def range_basis(self, n: int) -> np.ndarray:
        return self.ranges[self.index(n)]

    def kernel_basis(self, n: int) -> np.ndarray:
        return self.kernels[self.index(n)]


@dataclass(frozen=True)
class DichotomyCertificate:
    """Constants (D, lam, eps) for the pair of decay estimates."""

    D: float
    lam: float
    eps: float = 0.0
    ledger: dict | None = None

    def __post_init__(self):
        if not (self.D >= 1.0 and math.isfinite(self.D)):
            raise ConfigError("certificate constant D must be finite and >= 1")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ConfigError("certificate exponent lam must be positive")
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ConfigError("certificate exponent eps must be >= 0")


def _check_aligned(sys: LinearSystem, proj, rate: GrowthRate, nu: NuSequence):
    check_aligned(sys, proj, rate, nu)
    if proj is not None and proj.dim != sys.dim:
        raise ConfigError("projection dimension differs from system dimension")


def _renormalize(stack, s):
    """Divide each matrix of the stack by its spectral norm s in place;
    returns the log norms, -inf (and a zero matrix) where a product
    collapsed."""
    nz = s > 0.0
    stack /= np.where(nz, s, 1.0)[:, None, None]
    stack[~nz] = 0.0
    return np.where(nz, np.log(np.where(nz, s, 1.0)), -np.inf)


@dataclass(frozen=True)
class StepRecord:
    """The unit coefficients restricted to the family, in its orthonormal
    bases, read-only: the range side's coordinates and steps F_j, the
    complementary side's coordinates and steps E_j with their relative
    smallest singular value, the singular verdict and E_j^-1.  O(W); the
    decay march and the Green recursion both read it."""

    system: LinearSystem      # held, so the identity key cannot be reused
    range_coords: np.ndarray  # (W+1, d_s, d): R_n^T P_n
    range_steps: np.ndarray   # (W, d_s, d_s): F_j = R_{j+1}^T P_{j+1} M_j R_j
    kernel_coords: np.ndarray  # (W+1, d_u, d): K_n^T (Id - P_n)
    blocks: np.ndarray        # (W, d_u, d_u): E_j = K_{j+1}^T M_j K_j
    kernel_rel: np.ndarray    # sigma_min / sigma_max of E_j, 0 for a zero block
    singular: np.ndarray      # per step: E_j counts as singular
    inverses: np.ndarray      # (W, d_u, d_u): E_j^-1, NaN where singular


def _restricted_steps(sys: LinearSystem, proj: ProjectionFamily) -> StepRecord:
    w = sys.window[1] - sys.window[0]
    rc = np.swapaxes(proj.ranges, 1, 2) @ proj.projections
    kc = np.swapaxes(proj.kernels, 1, 2) @ (np.eye(sys.dim)[None, :, :] - proj.projections)
    if sys.dim == proj.stable_rank:
        rel = np.full(w, np.nan)
        blocks = np.zeros((w, 0, 0))
    else:
        blocks = np.swapaxes(proj.kernels[1:], 1, 2) @ sys.mats @ proj.kernels[:-1]
        sv = np.linalg.svd(blocks, compute_uv=False)
        # a -inf log scale comes with a zeroed M_j, so it lands here too
        rel = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(w), where=sv[:, 0] > 0.0)
    singular = rel <= KERNEL_SING_TOL
    inverses = np.full_like(blocks, np.nan)
    inverses[~singular] = np.linalg.inv(blocks[~singular])
    f = rc[1:] @ sys.mats @ proj.ranges[:-1]
    for a in (rc, f, kc, blocks, rel, singular, inverses):
        a.flags.writeable = False
    return StepRecord(system=sys, range_coords=rc, range_steps=f, kernel_coords=kc,
                      blocks=blocks, kernel_rel=rel, singular=singular, inverses=inverses)


def _memo(proj: ProjectionFamily, slot: str, sys: LinearSystem, build):
    """The family's record in ``slot`` for this system object, built on
    first use and rebuilt when the family meets another system."""
    rec = getattr(proj, slot)
    if rec is None or rec.system is not sys:
        rec = build(sys, proj)
        object.__setattr__(proj, slot, rec)
    return rec


def step_record(sys: LinearSystem, proj: ProjectionFamily) -> StepRecord:
    """The family's step record against this system object."""
    return _memo(proj, "_steps", sys, _restricted_steps)


@dataclass(frozen=True)
class _Sweep:
    """The lam-free record of one march: diagonal log norms and, per step,
    the log-norm increments of every running product the step extends."""

    system: LinearSystem      # held, so the identity key cannot be reused
    stable_log0: np.ndarray   # log ||P_n|| = log ||R_n^T P_n||
    stable_inc: tuple         # step j: columns 0..j, all log|F_j| at rank one
    unstable_log0: np.ndarray  # log ||Id - P_n|| = log ||K_n^T (Id - P_n)||
    unstable_inc: tuple       # steps w-1, w-2, ...: columns j+1..w, NaN past a singular step


def _log_abs(blocks):
    """log|b| of each 1 x 1 block of a stack, -inf for a zero block."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(blocks[:, 0, 0]))


def _march(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """Renormalized products of every window pair, one pass per side, each
    in the family's orthonormal bases.

    The forward product A(m,n)P_n = P_m A(m,n)P_n lies in the range of P_m,
    so it is carried in range coordinates as R_m^T A(m,n)P_n, a d_s x d
    stack: it starts from R_n^T P_n, whose norm is ||P_n||, and step j
    multiplies it by the d_s x d_s block F_j of the family's step record.
    With no coordinates outside the range, the iterate drops every step the
    noise a raw product leaks into the complement, where it would grow at
    the expansion rate and swamp the decaying signal; P_{j+1} projects each
    step through a family that is not exactly invariant.  The backward
    product is carried as K_m^T A(m,n)(Id - P_n), multiplied by the stored
    E_j^-1; a column that crosses a singular step gets NaN increments from
    that step on, and only the columns left of it are carried; with no
    complementary side the start stays Id - P_n, whose rounding-level norm
    the per-n report shows.  Where a side has rank <= 2 its stack is thin
    enough for the closed-form norm.  A rank-one side takes no products at
    all: every running product is a multiple of its start, so step j adds
    log|F_j| (or log|E_j^-1|) to each column it extends; an empty stable
    side adds -inf.
    """
    w = sys.window[1] - sys.window[0]
    d_s = proj.stable_rank
    steps = step_record(sys, proj)

    acc = steps.range_coords.copy()
    stable_log0 = _renormalize(acc, proj._norms)
    if d_s <= 1:
        logs = _log_abs(steps.range_steps) if d_s else np.full(w, -np.inf)
        stable_inc = [np.full(j + 1, v) for j, v in enumerate(logs)]
    else:
        stable_inc = []
        for j in range(w):
            sub = acc[: j + 1]
            sub[:] = steps.range_steps[j] @ sub
            stable_inc.append(_renormalize(sub, batched_spectral_norms(sub)))

    acc = (steps.kernel_coords.copy() if sys.dim > d_s
           else np.eye(sys.dim)[None, :, :] - proj.projections)
    unstable_log0 = _renormalize(acc, batched_spectral_norms(acc))
    unstable_inc = []
    if sys.dim > d_s:
        e_log = _log_abs(steps.inverses) if sys.dim - d_s == 1 else None
        live = w  # columns j+1 .. live cross no singular step
        for j in range(w - 1, -1, -1):
            if steps.singular[j]:
                live = j
            inc = np.full(w - j, np.nan)
            if e_log is not None:
                inc[: live - j] = e_log[j]
            elif live > j:
                x = acc[j + 1: live + 1]
                x[:] = steps.inverses[j] @ x
                inc[: live - j] = _renormalize(x, batched_spectral_norms(x))
            unstable_inc.append(inc)
    return _Sweep(system=sys, stable_log0=stable_log0, stable_inc=tuple(stable_inc),
                  unstable_log0=unstable_log0, unstable_inc=tuple(unstable_inc))


def _sweep(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """The family's march against this system object, made on first use."""
    return _memo(proj, "_sweep", sys, _march)


def stable_slack_grid(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                      nu: NuSequence, lam: float) -> np.ndarray:
    """log ||A(m,n) P_n|| + lam*(log mu_m - log mu_n) - log nu_n for m >= n.

    Entry [i_m, i_n]; NaN above the diagonal; the lam term is folded in per
    step.  Subtracting log D turns entries into the stable estimate's slack.
    """
    _check_aligned(sys, proj, rate, nu)
    sweep = _sweep(sys, proj)
    lm = rate.log_values
    c = sweep.stable_log0 - nu.log_values
    grid = np.where(np.eye(c.size, dtype=bool), c, np.nan)
    for j, inc in enumerate(sweep.stable_inc):
        t = float(sys.log_scales[j]) + lam * float(lm[j + 1] - lm[j])
        c[: j + 1] += inc + t
        grid[j + 1, : j + 1] = c[: j + 1]
    return grid


def unstable_slack_grid(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                        nu: NuSequence, lam: float):
    """Backward analogue on the complementary family, entries for m <= n.

    Returns (grid, kernel_rel_sigmas, singular_steps).  grid[i_m, i_n] holds
    log ||A(m,n)(Id - P_n)|| + lam*(log mu_n - log mu_m) - log nu_n.  Pairs
    across a step whose complementary restriction is singular stay NaN.
    """
    _check_aligned(sys, proj, rate, nu)
    sweep = _sweep(sys, proj)
    w = sys.window[1] - sys.window[0]
    lm = rate.log_values
    c = sweep.unstable_log0 - nu.log_values
    grid = np.where(np.eye(c.size, dtype=bool), c, np.nan)
    for j, inc in zip(range(w - 1, -1, -1), sweep.unstable_inc):
        t = -float(sys.log_scales[j]) + lam * float(lm[j + 1] - lm[j])
        c[j + 1:] += inc + t
        grid[j, j + 1:] = c[j + 1:]
    steps = step_record(sys, proj)
    singular = tuple(sys.window[0] + int(j) for j in np.flatnonzero(steps.singular))
    return grid, steps.kernel_rel.copy(), singular


def commuting_residuals(sys: LinearSystem, proj: ProjectionFamily) -> np.ndarray:
    """||M_n P_n - P_{n+1} M_n|| on unit-scaled coefficients, relative to
    the projection size."""
    w = sys.window[1] - sys.window[0]
    p, norms = proj.projections, proj._norms
    r = batched_spectral_norms(sys.mats @ p[:-1] - p[1:] @ sys.mats)
    scale = np.maximum(1.0, np.maximum(norms[:-1], norms[1:]))
    return r / scale if w else r


@dataclass(frozen=True)
class VerifyReport:
    """Per-axiom residuals and the full pairwise slack ledger."""

    window: tuple[int, int]
    D: float
    lam: float
    passed: bool
    failure_reasons: tuple[str, ...]
    max_commuting: float
    min_kernel_rel: float
    max_slack_stable: float
    max_slack_unstable: float
    commuting: np.ndarray = field(repr=False)
    kernel_rel: np.ndarray = field(repr=False)
    slack_stable: np.ndarray = field(repr=False)
    slack_unstable: np.ndarray = field(repr=False)
    singular_steps: tuple[int, ...] = ()

    def to_json(self) -> dict:
        f = finite_or_none
        n_min = self.window[0]
        commuting, kernel_rel = self.commuting.tolist(), self.kernel_rel.tolist()
        # worst slack per n, NaN cells skipped; an all-NaN column reads -inf
        worst_s, worst_u = (np.fmax.reduce(g, axis=0, initial=-np.inf).tolist()
                            for g in (self.slack_stable, self.slack_unstable))
        per_n = [{
            "n": n_min + i,
            "commuting": f(commuting[i]) if i < len(commuting) else None,
            "kernel_rel_sigma": f(kernel_rel[i]) if i < len(kernel_rel) else None,
            "worst_slack_stable": f(worst_s[i]),
            "worst_slack_unstable": f(worst_u[i]),
        } for i in range(self.window[1] - n_min + 1)]
        return {
            "window": list(self.window),
            "D": self.D,
            "lam": self.lam,
            "passed": bool(self.passed),
            "failure_reasons": list(self.failure_reasons),
            "max_commuting": f(self.max_commuting),
            "min_kernel_rel": f(self.min_kernel_rel),
            "max_slack_stable": f(self.max_slack_stable),
            "max_slack_unstable": f(self.max_slack_unstable),
            "singular_steps": list(self.singular_steps),
            "per_n": per_n,
        }

    def slack_columns(self):
        """Columns (m, n, side, slack) of the pairwise grid, CSV-ready: the
        stable side first, each side in row-major (m, n) order, NaN cells
        left out."""
        parts = []
        for side, grid in (("stable", self.slack_stable),
                           ("unstable", self.slack_unstable)):
            keep = ~np.isnan(grid)
            i_m, i_n = np.nonzero(keep)
            parts.append((i_m + self.window[0], i_n + self.window[0],
                          np.full(i_m.size, side), grid[keep]))
        return tuple(np.concatenate(col) for col in zip(*parts))


def _grid_max(grid) -> float:
    vals = grid[~np.isnan(grid)]
    if vals.size == 0:
        return float("-inf")
    return float(np.max(vals))


def verify_dichotomy(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                     nu: NuSequence, D: float, lam: float,
                     slack_tol: float = SLACK_TOL) -> VerifyReport:
    """Check both decay estimates and the structural axioms; never raises on
    mathematical failure, which lands in the report instead."""
    if not (D > 0 and math.isfinite(D)):
        raise ConfigError("D must be positive and finite")
    if not math.isfinite(lam):
        raise ConfigError("lam must be finite")
    log_d = math.log(D)

    s_grid = stable_slack_grid(sys, proj, rate, nu, lam) - log_d
    u_grid, kernel_rel, singular = unstable_slack_grid(sys, proj, rate, nu, lam)
    u_grid = u_grid - log_d
    comm = commuting_residuals(sys, proj)

    max_comm = float(np.max(comm)) if comm.size else 0.0
    known = kernel_rel[~np.isnan(kernel_rel)]
    min_kernel = float(np.min(known)) if known.size else float("inf")
    max_s = _grid_max(s_grid)
    max_u = _grid_max(u_grid)

    reasons = []
    if max_comm > COMMUTING_TOL:
        reasons.append(f"coefficients do not commute with projections (residual {max_comm:.3e})")
    if singular:
        reasons.append(f"coefficient singular on complementary subspace at {list(singular)}")
    if max_s > slack_tol:
        reasons.append(f"stable estimate violated (max slack {max_s:.6e})")
    if max_u > slack_tol:
        reasons.append(f"unstable estimate violated (max slack {max_u:.6e})")

    return VerifyReport(
        window=sys.window, D=float(D), lam=float(lam),
        passed=not reasons, failure_reasons=tuple(reasons),
        max_commuting=max_comm, min_kernel_rel=min_kernel,
        max_slack_stable=max_s, max_slack_unstable=max_u,
        commuting=comm, kernel_rel=kernel_rel,
        slack_stable=s_grid, slack_unstable=u_grid,
        singular_steps=singular,
    )


def _side_slope(grid, lm, stable_side):
    """Least-squares decay exponent from one grid; None when the side has no
    usable spread (absent block or everything collapsed to zero)."""
    mask = np.isfinite(grid)
    i_m, i_n = np.nonzero(mask)
    xs = lm[i_m] - lm[i_n] if stable_side else lm[i_n] - lm[i_m]
    ys = -grid[mask]
    if xs.size < 2 or np.ptp(xs) == 0.0:
        return None, int(xs.size)
    slope, _ = slope_intercept(xs, ys)
    return float(slope), int(xs.size)


def fit_certificate(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                    nu: NuSequence) -> DichotomyCertificate:
    """Estimate (D, lam, eps) from the measured decay data.

    lam is fitted per side (regression of -log decay against log mu
    differences) and the smaller side is kept: a pooled fit would average the
    two exponents and the weaker one is what both estimates can support.  D
    is then the envelope: the exact folded sweep is re-run at the fitted lam
    and D covers its worst slack, so re-verification passes by construction.
    """
    _check_aligned(sys, proj, rate, nu)
    lm = rate.log_values
    ln = nu.log_values

    b_s = stable_slack_grid(sys, proj, rate, nu, 0.0)
    b_u, _, singular = unstable_slack_grid(sys, proj, rate, nu, 0.0)

    slope_s, pairs_s = _side_slope(b_s, lm, True)
    slope_u, pairs_u = _side_slope(b_u, lm, False)

    d_s = proj.stable_rank
    d_u = proj.dim - d_s
    candidates = []
    if d_s > 0 and slope_s is not None:
        candidates.append(slope_s)
    if d_u > 0 and slope_u is not None:
        candidates.append(slope_u)
    if not candidates:
        raise FitError("no decay data on either side; nothing to fit")
    lam_hat = min(candidates)
    if lam_hat <= 0.0:
        raise FitError(
            "no dichotomy with respect to this projection family: fitted "
            f"exponents stable={slope_s} unstable={slope_u} "
            f"(pairs {pairs_s}/{pairs_u}, singular steps {list(singular)})"
        )

    env_s = _grid_max(stable_slack_grid(sys, proj, rate, nu, lam_hat))
    env_u = _grid_max(unstable_slack_grid(sys, proj, rate, nu, lam_hat)[0])
    log_env = max(0.0, env_s, env_u)
    if not log_env < LOG_ENVELOPE_MAX:
        raise FitError(f"decay envelope overflows (log {log_env:.3g})")
    d_hat = math.exp(log_env) * (1.0 + ENVELOPE_MARGIN)

    right = lm > 0.0
    eps_hat = 0.0
    if np.any(ln > 0.0) and int(np.sum(right)) >= 2 and np.ptp(lm[right]) > 0.0:
        slope_nu, _ = slope_intercept(lm[right], ln[right])
        eps_hat = max(0.0, float(slope_nu))

    ledger = {
        "slope_stable": slope_s,
        "slope_unstable": slope_u,
        "pairs_stable": pairs_s,
        "pairs_unstable": pairs_u,
        "log_envelope": log_env,
        "envelope_stable": None if env_s == float("-inf") else env_s,
        "envelope_unstable": None if env_u == float("-inf") else env_u,
    }
    return DichotomyCertificate(D=d_hat, lam=float(lam_hat), eps=eps_hat, ledger=ledger)


def check_munu(rate: GrowthRate, nu: NuSequence, eps: float) -> dict:
    """Window supremum of nu_n * mu_n^{-eps} over indices n >= 0, plus the
    mirrored left-tail supremum of nu_n * mu_n^{eps} for two-sided windows."""
    if eps < 0:
        raise ConfigError("eps must be >= 0")
    check_aligned(rate, nu)
    lm = rate.log_values
    ln = nu.log_values
    idx = np.arange(rate.window[0], rate.window[1] + 1)

    # a side with no indices imposes no bound: its supremum is 0.0
    right = idx >= 0
    sup = exp_or_inf(float(np.max(ln[right] - eps * lm[right], initial=-math.inf)))
    out = {"finite": math.isfinite(sup), "sup_value": sup}
    if rate.domain == "two_sided":
        left = idx <= 0
        left_sup = exp_or_inf(float(np.max(ln[left] + eps * lm[left], initial=-math.inf)))
        out["left_sup_value"] = left_sup
        out["finite"] = out["finite"] and math.isfinite(left_sup)
    return out


def beta_range(cert: DichotomyCertificate, domain: str) -> tuple[float, float]:
    """Open interval of admissible weight exponents for the solve theorems."""
    if domain not in ("one_sided", "two_sided"):
        raise ConfigError(f"unknown domain {domain!r}")
    gap = cert.lam - cert.eps
    if gap <= 0.0:
        raise FitError(
            f"empty weight range: eps {cert.eps} is not below lam {cert.lam}"
        )
    if domain == "one_sided":
        return (-gap, cert.lam)
    return (-gap, gap)
