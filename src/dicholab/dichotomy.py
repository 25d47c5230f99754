"""Verify dichotomy estimates for a projection family and fit constants.

Both decay estimates are checked on every window pair (m, n) in the log
domain: march once, then one broadcast per grid.  One march per (system,
family) pair keeps, on the family and keyed by the system object, one
lam-free grid of the log norms of the running products, which are scaled by
powers of two at every step and normed once per chunk of steps.  The forward
march runs in the family's range coordinates, one square d_s x d_s block F_j
per step; a rank-one side takes one logarithm per step in place of any
product.  The backward estimate is the forward one of the reversed
complementary dynamics, so one side march serves both sides: the stable side
below the grid's diagonal and the unstable side above it.  Both read their
blocks from one O(W) per-pair step record, as the Green recursion does.  The
step scales and lam enter through T, the cumulative sum of
t_j = log scale_j + lam * d log mu_j, so a slack grid is
(T_m - T_n) + sums + (log0_n - log nu_n) with no loop, and never holds
lam * (log mu_m - log mu_n), which loses seven digits where log mu reaches
1e8.  The slack is exactly zero where every t_j cancels to 0.0 in floating
point and every log norm is 0.0, as on the worked example: unit coefficients
whose log scales are exactly -lam * d log mu.

Slack grids are indexed [i_m, i_n] with NaN marking pairs outside the
estimate's triangle and -inf marking products that collapsed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError
from .linalg import _fix_column_signs, batched_spectral_norms, pow2_scale, slope_intercept
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
#: steps whose scaled blocks the march keeps for one call of the norm kernel
_CHUNK = 48


@dataclass(frozen=True)
class ProjectionFamily:
    """Projections P_n for every index of a window, constant stable rank.
    ``norms`` (W+1,) holds each ||P_n||, and ``ranges`` (W+1, d, stable_rank)
    and ``kernels`` (W+1, d, d - stable_rank) stack orthonormal bases of each
    P_n's range and kernel, all read-only and from one SVD of the stack."""

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
        u, svals, vt = np.linalg.svd(p)
        norms = svals[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            resid = batched_spectral_norms(p @ p - p) / np.maximum(1.0, norms) ** 2
        worst = int(np.argmax(resid))  # the first NaN, if there is one
        if not resid[worst] <= IDEMPOTENCE_TOL:
            raise ConfigError(
                f"projection at n={n_min + worst} is not idempotent "
                f"(residual {resid[worst]:.3e})"
            )
        # nonzero singular values of an idempotent are >= 1, so 0.5 separates
        ranks = np.sum(svals > 0.5, axis=1)
        if np.any(ranks != self.stable_rank):
            bad = int(np.argmax(ranks != self.stable_rank))
            raise ConfigError(
                f"projection rank changes: {ranks[bad]} at n={n_min + bad}, "
                f"expected {self.stable_rank}"
            )
        ranges = _fix_column_signs(u[:, :, :self.stable_rank])
        kernels = _fix_column_signs(np.swapaxes(vt[:, self.stable_rank:], 1, 2))
        # the march starts from these: R_n^T P_n = S diag(sigma) V^T, and the
        # rows of Id - P_n lie in the span of u's trailing columns
        sigma = svals[:, :self.stable_rank]
        corange = u[:, :, self.stable_rank:]
        for a in (norms, ranges, kernels, sigma, corange):
            a.flags.writeable = False
        object.__setattr__(self, "projections", p)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_corange", corange)
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

    def kernel_basis(self, n: int) -> np.ndarray:
        return self.kernels[self.index(n)]


@dataclass(frozen=True)
class DichotomyCertificate:
    """Constants (D, lam, eps) for the pair of decay estimates."""

    D: float
    lam: float
    eps: float = 0.0

    def __post_init__(self):
        if not (self.D >= 1.0 and math.isfinite(self.D)):
            raise ConfigError("certificate constant D must be finite and >= 1")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ConfigError("certificate exponent lam must be positive")
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ConfigError("certificate exponent eps must be >= 0")


@dataclass(frozen=True)
class StepRecord:
    """The coefficients M_j restricted to the family, in its orthonormal
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
        rel, small = np.full(w, np.nan), False
        blocks = np.zeros((w, 0, 0))
    else:
        blocks = np.swapaxes(proj.kernels[1:], 1, 2) @ sys.mats @ proj.kernels[:-1]
        sv = np.linalg.svd(blocks, compute_uv=False)
        # a -inf log scale comes with a zeroed M_j, so it lands here too
        rel = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(w), where=sv[:, 0] > 0.0)
        # also sigma_min against ||M_j|| >= ||E_j||, as a 1 x 1 block zero up to
        # rounding has rel 1; ||M_j||_F >= ||M_j|| (inf past 1e154) picks the steps worth a norm
        with np.errstate(over="ignore"):
            small = sv[:, -1] <= KERNEL_SING_TOL * np.linalg.norm(sys.mats, axis=(1, 2))
        small[small] = sv[small, -1] <= KERNEL_SING_TOL * batched_spectral_norms(sys.mats[small])
    singular = (rel <= KERNEL_SING_TOL) | small
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
    """The lam-free record of one march: each side's diagonal log norms and
    one grid [i_m, i_n] of the running sums of their log-norm increments,
    0 on the diagonal, the stable side below it (-inf at rank zero) and the
    unstable side above it (NaN across a singular step)."""

    system: LinearSystem      # held, so the identity key cannot be reused
    stable_log0: np.ndarray   # log ||P_n|| = log ||diag(sigma_1 .. sigma_ds)||
    unstable_log0: np.ndarray  # log ||Id - P_n||, over the reversed window
    sums: np.ndarray          # (W+1, W+1), read-only


def _march_side(start, blocks, live, sums, norms=None):
    """One side's running sums into the strict lower triangle of sums; returns
    the log norms of its start, an entry-major (q, p, W+1) stack.  Step j
    multiplies the products of columns live[j]..j - 1 and column j's unit
    start by blocks[j], scales each by the power of two of its largest entry
    and sums the exponents e as ints; a chunk of steps takes its norms in
    one call, and a cell is e ln 2 + log ||x||.  A rank-one side adds
    log|blocks[j]| at step j (-inf on an empty side) and takes no products."""
    w, p = blocks.shape[:2]
    live = np.broadcast_to(live, w)
    norms = batched_spectral_norms(start.T) if norms is None else norms
    with np.errstate(divide="ignore"):
        log0 = np.log(norms)
        if p <= 1:
            logs = np.log(np.abs(blocks[:, 0, 0])) if p else np.full(w, -np.inf)
            for j in range(w):
                lo = live[j]
                np.add(sums[j, lo: j + 1], logs[j], out=sums[j + 1, lo: j + 1])
            return log0
    start = start / norms
    # step j's scaled products, row j + 1's k columns, fill k slots of buf;
    # column j + 1's start takes the next one, so step j + 1 reads one run
    buf = np.empty(start.shape[:2] + ((min(_CHUNK, w) + 1) * (w + 1),))
    exps = np.zeros(w + 1, dtype=int)  # per column, the exponents summed so far
    b, rows = 0, []
    for j in range(w):
        lo = live[j]
        k = j + 1 - lo
        buf[:, :, b] = start[:, :, j]
        x = blocks[j] @ buf[:, :, b - k + 1: b + 1]
        exps[lo: j + 1] += pow2_scale(x, out=buf[:, :, b: b + k])
        np.multiply(exps[lo: j + 1], math.log(2.0), out=sums[j + 1, lo: j + 1])
        rows.append((j, lo, b))
        b += k
        if (j + 1) % _CHUNK and j + 1 < w:
            continue
        first = rows[0][2]
        with np.errstate(divide="ignore"):
            logs = np.log(batched_spectral_norms(buf[:, :, first: b].T))
        for i, col, at in rows:
            sums[i + 1, col: i + 1] += logs[at - first: at - first + i + 1 - col]
        # the chunk's last slice moves to the front for the next one
        buf[:, :, :k] = buf[:, :, b - k: b]
        b, rows = k, []
    return log0


def _march(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """Log norms of the products of every window pair, one side march per
    side, each a stack of square blocks in the family's orthonormal bases.

    The forward product A(m,n)P_n = P_m A(m,n)P_n lies in the range of P_m,
    so it is carried in range coordinates and step j multiplies it by the
    d_s x d_s block F_j of the step record: the iterate drops every step the
    noise a raw product leaks into the complement, where it would grow at
    the expansion rate and swamp the decaying signal.  The backward product
    K_m^T A(m,n)(Id - P_n) is the forward product of the reversed window,
    through the stored E_j^-1 last step first, into the sums grid seen back
    to front; a column that crosses a singular step gets NaN from that step
    on.  Only norms are kept, and ||X L Q|| = ||X L|| for Q with orthonormal
    rows: R_n^T P_n is S diag(sigma) V^T with signs S, so the stable side
    starts from diag(sigma), and the rows of K_n^T (Id - P_n) lie in the span
    of the orthonormal complement U_n of P_n's range, so the unstable side
    starts from K_n^T (Id - P_n) U_n.  With no complementary side the start
    stays Id - P_n, whose rounding-level norm the per-n report shows.
    """
    w = sys.window[1] - sys.window[0]
    d_s, d_u = proj.stable_rank, sys.dim - proj.stable_rank
    steps = step_record(sys, proj)
    sums = np.where(np.eye(w + 1, dtype=bool), 0.0, np.nan)

    # entry-major: start[b, a, n] is entry (a, b) of column n's block, so a
    # step is one matmul per b on contiguous rows, which the norm kernel reads too
    start = np.eye(d_s)[:, :, None] * proj._sigma.T
    stable_log0 = _march_side(start, steps.range_steps, 0, sums, proj.norms)

    if d_u > 1:
        start = steps.kernel_coords @ proj._corange
    elif d_u:
        start = steps.kernel_coords
    else:
        start = np.eye(sys.dim)[None, :, :] - proj.projections
    # reversed step j crosses columns 0..j; a singular one cuts them all,
    # and with no complementary side every step does
    cut = steps.singular[::-1] if d_u else np.ones(w, dtype=bool)
    live = np.maximum.accumulate(np.arange(1, w + 1) * cut)
    unstable_log0 = _march_side(np.ascontiguousarray(start[::-1].T), steps.inverses[::-1],
                                live, sums[::-1, ::-1])
    sums.flags.writeable = False
    return _Sweep(sys, stable_log0, unstable_log0, sums)


def _sweep(sys: LinearSystem, proj: ProjectionFamily) -> _Sweep:
    """The family's march against this system object, made on first use."""
    return _memo(proj, "_sweep", sys, _march)


def _slack_grid(sys, proj, rate, nu, lam, stable):
    """(T_m - T_n) + sums + (log0_n - log nu_n) on one side's triangle, NaN
    off it, T the cumulative sum of t_j = log_scale_j + lam * d log mu_j."""
    check_aligned(sys, proj, rate, nu)
    sweep = _sweep(sys, proj)
    t = sys.log_scales + lam * np.diff(rate.log_values)
    # a -inf log scale adds 0: its step's increments are -inf or NaN already
    t[np.isneginf(t)] = 0.0
    cum = np.cumsum(np.concatenate(([0.0], t)))
    keep = np.tri(cum.size, dtype=bool)
    grid = np.full((cum.size,) * 2, np.nan)
    np.subtract.outer(cum, cum, out=grid, where=keep if stable else keep.T)
    grid += sweep.sums
    grid += (sweep.stable_log0 if stable else sweep.unstable_log0[::-1]) - nu.log_values
    return grid


def stable_slack_grid(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                      nu: NuSequence, lam: float) -> np.ndarray:
    """log ||A(m,n) P_n|| + lam*(log mu_m - log mu_n) - log nu_n for m >= n.

    Entry [i_m, i_n]; NaN above the diagonal.  Subtracting log D turns
    entries into the stable estimate's slack.
    """
    return _slack_grid(sys, proj, rate, nu, lam, True)


def unstable_slack_grid(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                        nu: NuSequence, lam: float) -> np.ndarray:
    """Backward analogue on the complementary family, entries for m <= n.

    grid[i_m, i_n] holds log ||A(m,n)(Id - P_n)|| + lam*(log mu_n - log mu_m)
    - log nu_n.  Pairs across a step whose complementary restriction is
    singular (see the step record) stay NaN.  The stable grid's arithmetic
    at -lam, whose T_m - T_n is this lam term, on the sums' other triangle.
    """
    return _slack_grid(sys, proj, rate, nu, -lam, False)


def commuting_residuals(sys: LinearSystem, proj: ProjectionFamily) -> np.ndarray:
    """||M_n P_n - P_{n+1} M_n|| relative to ||M_n|| and to the projection
    size, so the rows' scale cancels (A_n itself commutes or not whatever
    part of it log_scale_n carries); a zero step reads 0."""
    p, norms = proj.projections, proj.norms
    r = batched_spectral_norms(sys.mats @ p[:-1] - p[1:] @ sys.mats)
    scale = batched_spectral_norms(sys.mats) * np.maximum(1.0, np.maximum(norms[:-1], norms[1:]))
    return np.divide(r, scale, out=np.zeros_like(r), where=scale > 0.0)


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
    """Largest entry, NaN cells skipped; -inf for an all-NaN grid."""
    return float(np.fmax.reduce(grid, axis=None, initial=-np.inf))


def _log_sup(sys, proj, rate, nu, beta):
    """(log sup, stable grid, unstable grid) of the solution-operator norm at
    beta: grids at +-beta, NaN on the unstable diagonal and half-line column 0."""
    s_grid = stable_slack_grid(sys, proj, rate, nu, float(beta))
    u_grid = unstable_slack_grid(sys, proj, rate, nu, -float(beta))
    a = s_grid.shape[0]
    u_grid[np.arange(a), np.arange(a)] = np.nan
    if sys.domain == "one_sided":
        s_grid[:, 0] = u_grid[:, 0] = np.nan
    return max(_grid_max(s_grid), _grid_max(u_grid)), s_grid, u_grid


def verify_dichotomy(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                     nu: NuSequence, D: float, lam: float) -> VerifyReport:
    """Check both decay estimates and the structural axioms; never raises on
    mathematical failure, which lands in the report instead."""
    if not (D > 0 and math.isfinite(D)):
        raise ConfigError("D must be positive and finite")
    if not math.isfinite(lam):
        raise ConfigError("lam must be finite")
    return _verdict(sys, proj, D, lam, stable_slack_grid(sys, proj, rate, nu, lam),
                    unstable_slack_grid(sys, proj, rate, nu, lam))


def _verdict(sys, proj, D, lam, s_grid, u_grid) -> VerifyReport:
    """verify_dichotomy's report from both sides' grids at lam, made slacks in place."""
    s_grid -= math.log(D)
    u_grid -= math.log(D)
    steps = step_record(sys, proj)
    kernel_rel = steps.kernel_rel.copy()
    singular = tuple((np.flatnonzero(steps.singular) + sys.window[0]).tolist())
    comm = commuting_residuals(sys, proj)

    max_comm = float(np.max(comm)) if comm.size else 0.0
    known = kernel_rel[~np.isnan(kernel_rel)]
    min_kernel = float(np.min(known)) if known.size else float("inf")
    max_s, max_u = _grid_max(s_grid), _grid_max(u_grid)

    reasons = []
    if max_comm > COMMUTING_TOL:
        reasons.append(f"coefficients do not commute with projections (residual {max_comm:.3e})")
    if singular:
        reasons.append(f"coefficient singular on complementary subspace at {list(singular)}")
    if max_s > SLACK_TOL:
        reasons.append(f"stable estimate violated (max slack {max_s:.6e})")
    if max_u > SLACK_TOL:
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


def _moment_slope(sums, cum, h, lm, stable):
    """(slope, pairs) of y = -grid on x = +-(log mu_m - log mu_n), least squares
    over the finite cells of one side's lam = 0 grid (C_m - C_n) + sums + h_n,
    C = cum: x and y are row plus column terms (less sums for y), so N, Sx,
    Sxx and the centred Sxy are products of the cells' mask and zero-filled
    sums with vectors, log mu and C centred as Sxx - Sx^2/N cancels.  None for
    < 2 cells or all x equal, which is no cell off the diagonal: a column's
    cells bring its x = 0 diagonal cell, and log mu strictly increases."""
    a, live = lm.size, np.isfinite(h)
    tri = np.tri(a, dtype=bool)
    cells = np.isfinite(sums, where=(tri if stable else tri.T) & live, out=np.zeros((a, a), bool))
    z, f = np.positive(sums, where=cells, out=np.zeros((a, a))), cells.astype(float)
    one, ell, c = np.ones(a), lm - lm.mean(), cum - cum.mean()
    q = c - np.where(live, h, 0.0)  # y_mn = q_n - c_m - sums_mn
    r_one, r_ell, r_q = (f @ np.column_stack((one, ell, q))).T
    c_one, n = one @ f, int(r_one.sum())
    if n < 2 or n == np.trace(f):
        return None, n
    u = ell - (ell @ r_one - ell @ c_one) / n  # stable side: x_mn - mean x = u_m - ell_n
    sxx = (u * u) @ r_one + (ell * ell) @ c_one - 2.0 * (u @ r_ell)
    sxy = (u @ r_q - (u * c) @ r_one + c @ r_ell - (ell * q) @ c_one
           - u @ (z @ one) + (one @ z) @ ell)
    return float(sxy / sxx if stable else -sxy / sxx), n


def fit_certificate(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                    nu: NuSequence) -> DichotomyCertificate:
    """Estimate (D, lam, eps) from the measured decay data.

    lam is fitted per side and the smaller side is kept: a pooled fit would
    average the two exponents and the weaker one is what both estimates can
    support.  A side's lam is the least-squares slope of -log decay against
    log mu differences over its finite cells, from their moments; fewer than
    two cells or all differences equal give that side none.  D is then the
    envelope: D covers the worst slack of the grids at the fitted lam, from
    the same march, so re-verification passes by construction.
    """
    return _fit(sys, proj, rate, nu)[0]


def _fit(sys, proj, rate, nu):
    """fit_certificate's certificate with both sides' grids at its lam."""
    check_aligned(sys, proj, rate, nu)
    lm, ln = rate.log_values, nu.log_values
    sweep, ls = _sweep(sys, proj), sys.log_scales
    cum = np.cumsum(np.concatenate(([0.0], np.where(np.isneginf(ls), 0.0, ls))))
    slope_s, pairs_s = _moment_slope(sweep.sums, cum, sweep.stable_log0 - ln, lm, True)
    slope_u, pairs_u = _moment_slope(sweep.sums, cum, sweep.unstable_log0[::-1] - ln, lm, False)

    # an empty side has no slope: -inf stable cells, unstable ones on the diagonal
    candidates = [s for s in (slope_s, slope_u) if s is not None]
    if not candidates:
        raise FitError("no decay data on either side; nothing to fit")
    lam_hat = min(candidates)
    if lam_hat <= 0.0:
        singular = np.flatnonzero(step_record(sys, proj).singular) + sys.window[0]
        raise FitError(
            "no dichotomy with respect to this projection family: fitted "
            f"exponents stable={slope_s} unstable={slope_u} "
            f"(pairs {pairs_s}/{pairs_u}, singular steps {singular.tolist()})"
        )

    s_grid = stable_slack_grid(sys, proj, rate, nu, lam_hat)
    u_grid = unstable_slack_grid(sys, proj, rate, nu, lam_hat)
    log_env = max(0.0, _grid_max(s_grid), _grid_max(u_grid))
    if not log_env < LOG_ENVELOPE_MAX:
        raise FitError(f"decay envelope overflows (log {log_env:.3g})")
    d_hat = math.exp(log_env) * (1.0 + ENVELOPE_MARGIN)

    right = lm > 0.0
    eps_hat = 0.0
    if np.any(ln > 0.0) and int(np.sum(right)) >= 2 and np.ptp(lm[right]) > 0.0:
        slope_nu, _ = slope_intercept(lm[right], ln[right])
        eps_hat = max(0.0, float(slope_nu))

    return DichotomyCertificate(D=d_hat, lam=float(lam_hat), eps=eps_hat), s_grid, u_grid


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
