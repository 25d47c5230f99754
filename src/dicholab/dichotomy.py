"""Verify dichotomy estimates for a projection family and fit constants.

Both decay estimates are checked on every window pair (m, n) in the log
domain: march once, fold many.  One march per (system, family) pair
renormalizes the running products after every step and keeps only the
per-step log-norm increments, on the family, keyed by the system object.
The exponent lam enters through a per-step scalar alone (log step scale +
lam * d log mu), so each slack grid is a fold of the increments, step by
step, instead of one large subtraction at the end.  On systems whose steps
are exactly log-linear in the rate the increments cancel to 0.0 in floating
point, so exact models report exactly zero slack even where log mu reaches
1e8 and a naive two-term subtraction would lose seven digits.

Slack grids are indexed [i_m, i_n] with NaN marking pairs outside the
estimate's triangle and -inf marking products that collapsed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError
from .linalg import (
    batched_spectral_norms,
    nullspace_basis,
    orth_columns,
    slope_intercept,
)
from .rates import GrowthRate, NuSequence
from .system import KERNEL_SING_TOL, LinearSystem

IDEMPOTENCE_TOL = 1e-10
COMMUTING_TOL = 1e-10
SLACK_TOL = 1e-8
#: relative headroom added to the fitted envelope constant so that
#: re-verification with the fitted certificate lands strictly below zero
ENVELOPE_MARGIN = 1e-12


@dataclass(frozen=True)
class ProjectionFamily:
    """Projections P_n for every index of a window, constant stable rank."""

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
        svals = np.linalg.svd(p, compute_uv=False)
        ranks = np.sum(svals > 0.5, axis=1)
        if np.any(ranks != self.stable_rank):
            bad = int(np.argmax(ranks != self.stable_rank))
            raise ConfigError(
                f"projection rank changes: {ranks[bad]} at n={n_min + bad}, "
                f"expected {self.stable_rank}"
            )
        object.__setattr__(self, "projections", p)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "_ranges", [orth_columns(q, rank=self.stable_rank) for q in p])
        object.__setattr__(self, "_kernels", [nullspace_basis(q, d - self.stable_rank) for q in p])
        object.__setattr__(self, "_sweep", None)

    @property
    def dim(self) -> int:
        return self.projections.shape[1]

    def index(self, n: int) -> int:
        if n < self.window[0] or n > self.window[1]:
            raise ConfigError(f"index {n} outside window {self.window}")
        return n - self.window[0]

    def matrix_at(self, n: int) -> np.ndarray:
        return self.projections[self.index(n)]

    def norm_at(self, n: int) -> float:
        return float(self._norms[self.index(n)])

    def range_basis(self, n: int) -> np.ndarray:
        return self._ranges[self.index(n)]

    def kernel_basis(self, n: int) -> np.ndarray:
        return self._kernels[self.index(n)]


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
    if proj is not None and proj.window != sys.window:
        raise ConfigError("projection family window differs from system window")
    if rate.window != sys.window:
        raise ConfigError("rate window differs from system window")
    if nu.window != sys.window:
        raise ConfigError("nu window differs from system window")
    if proj is not None and proj.dim != sys.dim:
        raise ConfigError("projection dimension differs from system dimension")


def _renormalize(stack):
    """Scale each matrix of the stack to unit spectral norm in place; returns
    the log norms, -inf (and a zero matrix) where a product collapsed."""
    s = batched_spectral_norms(stack)
    nz = s > 0.0
    stack[nz] /= s[nz, None, None]
    stack[~nz] = 0.0
    return np.where(nz, np.log(np.where(nz, s, 1.0)), -np.inf)


@dataclass(frozen=True)
class _Sweep:
    """The lam-free record of one march: diagonal log norms and, per step,
    the log-norm increments of every running product the step extends."""

    system: LinearSystem      # held, so the identity key cannot be reused
    stable_log0: np.ndarray   # log ||P_n||
    stable_inc: tuple         # step j: increments of columns 0..j
    unstable_log0: np.ndarray  # log ||Id - P_n||
    unstable_inc: tuple       # steps w-1, w-2, ...: increments of columns j+1..w
    kernel_rel: np.ndarray
    singular: tuple


def _march(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """Renormalized products of every window pair, one pass per side.

    The forward product is re-projected through the family every step
    (A(m,n)P_n = P_m A(m,n)P_n), else rounding noise leaking into the
    complement grows at the expansion rate and swamps the decaying signal.
    The backward march inverts the steps restricted to the complement and
    stops at the first singular one; the sigmas below it are still measured.
    """
    w = sys.window[1] - sys.window[0]
    p = proj.projections

    acc = p.copy()
    stable_log0 = _renormalize(acc)
    stable_inc = []
    for j in range(w):
        sub = acc[: j + 1]
        sub[:] = p[j + 1][None, :, :] @ (sys.mats[j][None, :, :] @ sub)
        stable_inc.append(_renormalize(sub))

    comp = np.eye(sys.dim)[None, :, :] - p
    norms = batched_spectral_norms(comp)
    with np.errstate(divide="ignore"):
        unstable_log0 = np.log(norms)
    kernel_rel = np.full(w, np.nan)
    unstable_inc = []
    singular = []
    if sys.dim > proj.stable_rank:
        kernels = proj._kernels
        acc = np.stack([kernels[i].T @ comp[i] for i in range(w + 1)])
        acc /= np.where(norms == 0.0, 1.0, norms)[:, None, None]
        for j in range(w - 1, -1, -1):
            e = kernels[j + 1].T @ sys.mats[j] @ kernels[j]
            sv = np.linalg.svd(e, compute_uv=False)
            # a -inf log scale comes with a zeroed M_j, so it lands here too
            kernel_rel[j] = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
            if kernel_rel[j] <= KERNEL_SING_TOL:
                singular.append(sys.window[0] + j)
            if singular:
                continue
            x = np.linalg.solve(e, acc[j + 1:])
            unstable_inc.append(_renormalize(x))
            acc[j + 1:] = x
    return _Sweep(system=sys, stable_log0=stable_log0, stable_inc=tuple(stable_inc),
                  unstable_log0=unstable_log0, unstable_inc=tuple(unstable_inc),
                  kernel_rel=kernel_rel, singular=tuple(sorted(singular)))


def _sweep(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """The family's march against this system object, made on first use.

    Threads sharing a family may both march; the records are equal and
    either one is stored whole, so no lock is needed.
    """
    sweep = proj._sweep
    if sweep is None or sweep.system is not sys:
        sweep = _march(sys, proj)
        object.__setattr__(proj, "_sweep", sweep)
    return sweep


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
    return grid, sweep.kernel_rel.copy(), sweep.singular


def commuting_residuals(sys: LinearSystem, proj: ProjectionFamily) -> np.ndarray:
    """||M_n P_n - P_{n+1} M_n|| on unit-scaled coefficients, relative to
    the projection size."""
    w = sys.window[1] - sys.window[0]
    p = proj.projections
    r = batched_spectral_norms(sys.mats @ p[:-1] - p[1:] @ sys.mats)
    scale = np.maximum(1.0, np.maximum(
        batched_spectral_norms(p[:-1]), batched_spectral_norms(p[1:])))
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
        def f(x):
            return float(x) if math.isfinite(x) else None

        n_min = self.window[0]
        per_n = []
        for i in range(self.window[1] - n_min + 1):
            with np.errstate(invalid="ignore"):
                row_s = self.slack_stable[:, i]
                row_u = self.slack_unstable[:, i]
            per_n.append({
                "n": n_min + i,
                "commuting": f(self.commuting[i]) if i < self.commuting.size else None,
                "kernel_rel_sigma": f(self.kernel_rel[i])
                if i < self.kernel_rel.size and not math.isnan(self.kernel_rel[i]) else None,
                "worst_slack_stable": f(np.nanmax(row_s)) if not np.all(np.isnan(row_s)) else None,
                "worst_slack_unstable": f(np.nanmax(row_u)) if not np.all(np.isnan(row_u)) else None,
            })
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

    d_u = sys.dim - proj.stable_rank
    max_comm = float(np.max(comm)) if comm.size else 0.0
    known = kernel_rel[~np.isnan(kernel_rel)]
    min_kernel = float(np.min(known)) if known.size else float("inf")
    max_s = _grid_max(s_grid)
    max_u = _grid_max(u_grid)

    reasons = []
    if max_comm > COMMUTING_TOL:
        reasons.append(f"coefficients do not commute with projections (residual {max_comm:.3e})")
    if d_u > 0 and (singular or min_kernel <= KERNEL_SING_TOL):
        where = singular if singular else ()
        reasons.append(f"coefficient singular on complementary subspace at {list(where)}")
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
    if not log_env < 700.0:
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
    if rate.window != nu.window:
        raise ConfigError("rate and nu windows differ")
    lm = rate.log_values
    ln = nu.log_values
    idx = np.arange(rate.window[0], rate.window[1] + 1)

    log_max = math.log(np.finfo(float).max)
    right = idx >= 0
    log_sup = float(np.max(ln[right] - eps * lm[right]))
    sup = math.inf if log_sup >= log_max else math.exp(log_sup)
    out = {"finite": math.isfinite(sup), "sup_value": sup}
    if rate.domain == "two_sided":
        left = idx <= 0
        log_left = float(np.max(ln[left] + eps * lm[left]))
        left_sup = math.inf if log_left >= log_max else math.exp(log_left)
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
