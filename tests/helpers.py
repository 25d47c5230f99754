"""Shared builders and brute-force oracles for the test suite.

The oracles here recompute expected values through a different route than
the library (plain Python loops over raw floats, or arbitrary precision via
mpmath) so that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from dicholab import (
    ConfigError,
    GrowthRate,
    KernelSingularError,
    LinearSystem,
    NuSequence,
    SplittingDegenerateError,
    WeightedNormSpec,
    make_nu,
    make_planted_model,
    make_rate,
    norm,
    spectral_norm,
)
from dicholab import admissibility
from dicholab.linalg import haar_orthogonal, qr_pos, random_bounded_cond, slope_intercept
from dicholab.splitting import COND_LIMIT, RANK_LOSS_TOL

#: acceptance tests append one "criterion N: PASS/FAIL" line each; the
#: conftest terminal-summary hook prints them after the run
ACCEPTANCE_LINES: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def exp_setup(window, domain="one_sided", nu_kind="uniform", c=1.0, epsilon=0.0):
    rate = make_rate("exponential", domain, window)
    nu = make_nu(nu_kind, rate, c=c, epsilon=epsilon)
    return rate, nu


def planted(window, lam_s, lam_u, dims, cond=1.0, seed=0, domain="one_sided",
            rate_kind="exponential", nu_kind="uniform", epsilon=0.0):
    rate = make_rate(rate_kind, domain, window)
    nu = make_nu(nu_kind, rate, epsilon=epsilon)
    model = make_planted_model(rate, nu, lam_s, lam_u, dims, cond=cond, seed=seed)
    return model, rate, nu


def reference_planted(rate: GrowthRate, nu: NuSequence, lam_s, lam_u, dims, cond, seed):
    """(log_scales, mats, projections, similarity) of a planted model built
    one index at a time: a Haar factor per index from its own generator and
    a product per step and per projection, the route the stacked builder
    replaces."""
    d_s, d_u = dims
    d = d_s + d_u
    n_min, n_max = rate.window
    w = n_max - n_min
    if cond <= 1.0:
        w_fix = np.eye(d)
        sims = [np.eye(d)] * (w + 1)
        sims_inv = sims
    else:
        w_fix = random_bounded_cond(np.random.default_rng([int(seed), 0x5EED]), d, cond)
        w_inv_fix = np.linalg.inv(w_fix)
        qs = [haar_orthogonal(np.random.default_rng([int(seed), 1, (n_min + i) % 2**32]), d)
              for i in range(w + 1)]
        sims = [q @ w_fix for q in qs]
        sims_inv = [w_inv_fix @ q.T for q in qs]
    lm, ln = rate.log_values, nu.log_values
    log_scales, mats = np.empty(w), np.empty((w, d, d))
    for i in range(w):
        dl = lm[i + 1] - lm[i]
        log_s = -(lam_s * dl) + (ln[i] - ln[i + 1])
        log_u = lam_u * dl
        core = np.eye(d)
        log_scales[i] = log_u if d_u else log_s
        if d_s and d_u:
            gap = log_s - log_u
            core[:d_s, :d_s] *= math.exp(gap) if gap > -745.0 else 0.0
        mats[i] = sims[i + 1] @ core @ sims_inv[i]
    j = np.diag([1.0] * d_s + [0.0] * d_u)
    projs = np.stack([sims[i] @ j @ sims_inv[i] for i in range(w + 1)])
    return log_scales, mats, projs, np.stack(sims)


def reference_renormalized_product(mats, log_scales):
    """(log_scale, M) of the scaled window product one step at a time, M
    renormalized to unit spectral norm after every step: the sequential
    route the pairwise tree replaces, except that the log scale is summed
    exactly (``math.fsum`` over the steps' terms), where the running sum of
    that route drifts by up to W eps |log_scale|.  (-inf, 0) on a -inf log
    scale or a product that collapses, (0, Id) on an empty window."""
    terms = []
    r = np.eye(mats.shape[1])
    for j in range(mats.shape[0]):
        r = mats[j] @ r
        s = spectral_norm(r)
        if s == 0.0 or log_scales[j] == -math.inf:
            return -math.inf, np.zeros_like(r)
        r = r / s
        terms += [float(log_scales[j]), math.log(s)]
    return math.fsum(terms), r


def reference_propagate_forward(sys, basis, n_from, n_to):
    """Forward images of a subspace, one ``qr_pos`` per step with R built
    and a bounds check per step: the loop the in-place factor read
    replaces, kept to match it bit for bit."""
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


def reference_reduce_frame(mats, log_scales, q, k):
    """Reduced steps of the trailing k columns of a moving frame, one
    ``qr_pos`` per step with the k x k corner cut from the full R."""
    steps, p = mats.shape[0], q.shape[1]
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


def brute_weighted_norm(x, beta, p, rate: GrowthRate, nu: NuSequence | None = None,
                        variant="plain", n0=None) -> float:
    """Loop-and-raw-float recomputation of the weighted sequence norms.

    Intentionally naive: materializes mu_n^beta as a double, so only valid
    on rates whose weights stay representable.  That is the point; the
    library's log-domain path must agree with the obvious formula wherever
    the obvious formula works at all.
    """
    x = np.asarray(x, dtype=float)
    vals = []
    for i in range(x.shape[0]):
        n = rate.window[0] + i
        lm = rate.log_at(n)
        if variant == "plain":
            w = math.exp(beta * lm)
        else:
            b = abs(beta)
            w = math.exp(b * lm) if n < n0 else math.exp(-b * lm)
        term = w * float(np.linalg.norm(x[i]))
        if p == 1:
            term *= math.exp(nu.log_at(n))
        vals.append(term)
    if p == 1:
        return float(sum(vals))
    return float(max(vals)) if vals else 0.0


def brute_evolution(sys, m, n):
    """Ordered product of raw coefficient matrices, plain loop."""
    acc = np.eye(sys.dim)
    for k in range(n, m):
        acc = sys.matrix(k) @ acc
    return acc


def brute_green(sys, proj, m, n):
    """Green kernel block G(m, n) from raw products, one pair at a time.

    A(m,n) P_n on and below the diagonal, taken as P_m A(m,n) P_n so that
    the rounding noise the raw product leaks into the expanding complement
    is dropped; above it, minus the inverse of the forward map of the
    complementary subspace from m to n, composed with the complementary
    projection at n.  Plain loops over raw doubles: no solver and no step
    record.
    """
    p_n = proj.matrix_at(n)
    if m >= n:
        return proj.matrix_at(m) @ brute_evolution(sys, m, n) @ p_n
    k_m = proj.kernel_basis(m)
    k_n = proj.kernel_basis(n)
    forward = k_n.T @ brute_evolution(sys, n, m) @ k_m
    return -k_m @ np.linalg.inv(forward) @ k_n.T @ (np.eye(sys.dim) - p_n)


def brute_slack_grids(sys, proj, rate: GrowthRate, nu: NuSequence, lam: float):
    """Both slack grids of ``dichotomy``, entry by entry from raw products.

    Stable [i_m, i_n], m >= n: log ||P_m A(m,n) P_n|| (the raw product taken
    back through P_m, as in ``brute_green``); unstable, m <= n: log ||Id - P_n||
    on the diagonal and log ||G(m, n)|| above it, the inverse of the raw
    forward map of the complementary subspace.  Both plus the lam and nu
    terms; NaN outside each triangle and off the unstable diagonal when that
    side is empty, and NaN for an unstable pair across a step whose
    complementary block is singular.  Only for windows whose raw products
    are doubles.
    """
    from dicholab.dichotomy import KERNEL_SING_TOL

    lm, ln = rate.log_values, nu.log_values
    a = len(lm)
    d_u = sys.dim - proj.stable_rank
    n0 = sys.window[0]
    singular = np.zeros(a - 1, dtype=bool)
    for i in range(a - 1) if d_u else ():
        sv = np.linalg.svd(proj.kernels[i + 1].T @ sys.matrix(n0 + i) @ proj.kernels[i],
                           compute_uv=False)
        singular[i] = sv[0] == 0.0 or sv[-1] / sv[0] <= KERNEL_SING_TOL
    stable = np.full((a, a), np.nan)
    unstable = np.full((a, a), np.nan)
    with np.errstate(divide="ignore"):
        for i_n in range(a):
            n = n0 + i_n
            for i_m in range(i_n, a):
                m = n0 + i_m
                prod = proj.matrix_at(m) @ brute_evolution(sys, m, n) @ proj.matrix_at(n)
                stable[i_m, i_n] = (np.log(spectral_norm(prod))
                                    + lam * (lm[i_m] - lm[i_n]) - ln[i_n])
            comp = np.eye(sys.dim) - proj.matrix_at(n)
            unstable[i_n, i_n] = np.log(spectral_norm(comp)) - ln[i_n]
            for i_m in range(i_n) if d_u else ():
                if singular[i_m:i_n].any():
                    continue
                g = spectral_norm(brute_green(sys, proj, n0 + i_m, n))
                unstable[i_m, i_n] = math.log(g) + lam * (lm[i_n] - lm[i_m]) - ln[i_n]
    return stable, unstable


def reference_march_grids(sys, proj, rate: GrowthRate, nu: NuSequence, lam: float):
    """(stable, unstable) slack grids from two per-side loops: the stable
    side marched forward over columns 0..j, the unstable side backward over
    columns j+1..live in window order, each folded by its own loop with a
    per-step scalar lam term.  Every running product is divided by its norm,
    an SVD of each block, after every step, and the log norms are summed:
    the route the power-of-two march, the norm kernel and the broadcast
    grids replace, kept as their reference."""
    from dicholab.dichotomy import step_record

    w = sys.window[1] - sys.window[0]
    d_s, d_u = proj.stable_rank, sys.dim - proj.stable_rank
    steps = step_record(sys, proj)

    def log_abs(blocks):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(blocks[:, 0, 0]))

    def renormalize(x):
        """Divide each (k, p, q) block by its norm in place; the log norms,
        -inf and a zero block where one collapsed."""
        s = np.linalg.svd(x, compute_uv=False)[:, 0] if x.size else np.zeros(len(x))
        nz = s > 0.0
        x[nz] /= s[nz, None, None]
        x[~nz] = 0.0
        with np.errstate(divide="ignore"):
            return np.log(s)

    acc = np.stack([np.diag(sig) for sig in proj._sigma])
    stable_log0 = renormalize(acc)
    if d_s <= 1:
        logs = log_abs(steps.range_steps) if d_s else np.full(w, -np.inf)
        stable_inc = [np.full(j + 1, v) for j, v in enumerate(logs)]
    else:
        stable_inc = []
        for j in range(w):
            acc[: j + 1] = steps.range_steps[j] @ acc[: j + 1]
            stable_inc.append(renormalize(acc[: j + 1]))

    if d_u > 1:
        acc = steps.kernel_coords @ proj._corange
    elif d_u:
        acc = steps.kernel_coords.copy()
    else:
        acc = np.eye(sys.dim)[None, :, :] - proj.projections
    unstable_log0 = renormalize(acc)
    unstable_inc = []
    if d_u:
        e_log = log_abs(steps.inverses) if d_u == 1 else None
        live = w
        for j in range(w - 1, -1, -1):
            if steps.singular[j]:
                live = j
            inc = np.full(w - j, np.nan)
            if e_log is not None:
                inc[: live - j] = e_log[j]
            elif live > j:
                x = acc[j + 1: live + 1]
                x[:] = steps.inverses[j] @ x
                inc[: live - j] = renormalize(x)
            unstable_inc.append(inc)

    lm = rate.log_values
    c = stable_log0 - nu.log_values
    stable = np.full((c.size, c.size), np.nan)
    np.fill_diagonal(stable, c)
    for j, inc in enumerate(stable_inc):
        t = float(sys.log_scales[j]) + lam * float(lm[j + 1] - lm[j])
        c[: j + 1] += inc + t
        stable[j + 1, : j + 1] = c[: j + 1]
    c = unstable_log0 - nu.log_values
    unstable = np.full((c.size, c.size), np.nan)
    np.fill_diagonal(unstable, c)
    for j, inc in zip(range(w - 1, -1, -1), unstable_inc):
        t = -float(sys.log_scales[j]) + lam * float(lm[j + 1] - lm[j])
        c[j + 1:] += inc + t
        unstable[j, j + 1:] = c[j + 1:]
    return stable, unstable


def solver_kernel(sys, proj, n):
    """The library's kernel column: G(m, n) for every index m of the window,
    stacked as (W+1, d, d), read off the Green recursion driven by d unit
    impulses at n (the way operator_norm_T reads it)."""
    w = sys.window[1] - sys.window[0]
    impulses = np.zeros((w + 1, sys.dim, sys.dim))
    impulses[n - sys.window[0]] = np.eye(sys.dim)
    return admissibility._green_convolve(sys, proj, impulses)


def dense_operator_norm(sys, proj, rate: GrowthRate, nu: NuSequence, beta: float,
                        limit: int = 50) -> float:
    """Solution-operator norm assembled pair by pair from raw kernel blocks.

    Independent cross-check for the grid-based operator_norm_T; the
    quadratic pair count keeps it restricted to small windows.
    """
    w = sys.window[1] - sys.window[0]
    if w + 1 > limit:
        raise ConfigError(f"window length {w + 1} exceeds dense limit {limit}")
    lm = rate.log_values
    ln = nu.log_values
    n_lo = 1 if sys.domain == "one_sided" else 0
    best = 0.0
    for j in range(n_lo, w + 1):
        for i in range(w + 1):
            g = spectral_norm(brute_green(sys, proj, sys.window[0] + i, sys.window[0] + j))
            if g == 0.0:
                continue
            log_val = (math.log(g) - beta * float(lm[i])
                       + beta * float(lm[j]) - float(ln[j]))
            val = math.exp(log_val) if log_val < 700.0 else math.inf
            best = max(best, val)
    return best


@dataclass(frozen=True)
class GraphNormOperator:
    """First-difference or perturbation-multiplication operator on sequences."""

    sys: LinearSystem
    rate: GrowthRate
    nu: NuSequence
    beta: float
    mode: str
    b: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("A_beta", "B_beta"):
            raise ConfigError(f"unknown graph operator mode {self.mode!r}")
        if self.rate.window != self.sys.window or self.nu.window != self.sys.window:
            raise ConfigError("rate/nu windows differ from system window")
        if self.mode == "B_beta":
            w = self.sys.window[1] - self.sys.window[0]
            if self.b is None or np.asarray(self.b).shape != (w, self.sys.dim, self.sys.dim):
                raise ConfigError("B_beta mode needs the step perturbations")
            object.__setattr__(self, "b", np.asarray(self.b, dtype=float))


def apply_graph_operator(op: GraphNormOperator, x) -> np.ndarray:
    """Sequence whose entry at index n is x_n - A_{n-1}x_{n-1} (difference
    mode) or B_{n-1}x_{n-1} (perturbation mode); the first entry is zero by
    definition."""
    x = np.asarray(x, dtype=float)
    w = op.sys.window[1] - op.sys.window[0]
    if x.shape != (w + 1, op.sys.dim):
        raise ConfigError("sequence shape must be (window length, dim)")
    out = np.zeros_like(x)
    if op.mode == "A_beta":
        prop = np.einsum("kij,kj->ki", op.sys.mats, x[:-1])
        with np.errstate(over="ignore"):
            prop = prop * np.exp(op.sys.log_scales)[:, None]
        prop = np.where(np.isnan(prop), 0.0, prop)
        out[1:] = x[1:] - prop
    else:
        out[1:] = np.einsum("kij,kj->ki", op.b, x[:-1])
    return out


def graph_norm(x, sys: LinearSystem, rate: GrowthRate, nu: NuSequence,
               beta: float) -> float:
    """Sup-type weighted size of the sequence plus summed weighted size of
    its first difference along the dynamics."""
    op = GraphNormOperator(sys=sys, rate=rate, nu=nu, beta=beta, mode="A_beta")
    ax = apply_graph_operator(op, x)
    sup_spec = WeightedNormSpec(beta=beta, p=math.inf, variant="plain")
    sum_spec = WeightedNormSpec(beta=beta, p=1, variant="plain")
    return norm(x, sup_spec, rate) + norm(ax, sum_spec, rate, nu)


def random_input(sys, seed, one_sided_zero=True):
    rng = np.random.default_rng(seed)
    w = sys.window[1] - sys.window[0]
    y = rng.standard_normal((w + 1, sys.dim))
    if one_sided_zero and sys.domain == "one_sided":
        y[0] = 0.0
    return y


def reference_closed_form_norms(stack) -> np.ndarray:
    """sigma_max of each single-row, single-column or 2 x 2 matrix as the
    norm kernel took it before it read rows: a row-major copy of the
    entries, each matrix scaled by the power of two of its largest entry,
    then a sum of squares or the two-hypot form on (a, b, c, d)."""
    k, p, q = stack.shape
    t = np.ascontiguousarray(stack.reshape(k, p * q).T)
    e = np.frexp(np.max(np.abs(t), axis=0, initial=0.0))[1]
    t = np.ldexp(t, -e)
    if min(p, q) <= 1:
        return np.ldexp(np.sqrt(np.sum(t * t, axis=0)), e)
    a, b, c, d = t
    return np.ldexp((np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2, e)


def reference_grid_max(grid) -> float:
    """Largest non-NaN entry by an explicit gather; -inf when there is none."""
    vals = grid[~np.isnan(grid)]
    return float(np.max(vals)) if vals.size else float("-inf")


def reference_side_slope(grid, lm, stable_side):
    """(slope, pairs) of -slack against log mu gaps, the pairs taken by
    np.nonzero index arrays over the finite cells."""
    mask = np.isfinite(grid)
    i_m, i_n = np.nonzero(mask)
    xs = lm[i_m] - lm[i_n] if stable_side else lm[i_n] - lm[i_m]
    ys = -grid[mask]
    if xs.size < 2 or np.ptp(xs) == 0.0:
        return None, int(xs.size)
    return float(slope_intercept(xs, ys)[0]), int(xs.size)


def reference_green_log_sup(g_s, g_u, one_sided) -> float:
    """log of the Green supremum from the two slack grids at +-beta*: the
    finite cells of both, the unstable diagonal left out, by concatenation.
    On a half line inputs vanish at the first index, so its column never
    acts and is left out too."""
    g_s, g_u = g_s.copy(), g_u.copy()
    g_u[np.arange(len(g_u)), np.arange(len(g_u))] = np.nan
    if one_sided:
        g_s[:, 0] = g_u[:, 0] = np.nan
    vals = np.concatenate([g_s[np.isfinite(g_s)], g_u[np.isfinite(g_u)]])
    return float(np.max(vals)) if vals.size else -math.inf


def reference_angles(a, b) -> np.ndarray:
    """Principal angles of one pair of spans, ascending, straight from
    scipy.linalg.subspace_angles: the reference the library's batched
    kernel must match bit for bit."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    return np.sort(scipy.linalg.subspace_angles(a, b))


def subspace_gap(a, b) -> float:
    """Largest principal angle, tolerating empty bases."""
    ang = reference_angles(a, b)
    return float(ang[-1]) if ang.size else 0.0


def reference_projections(stable, unstable, n0=0) -> np.ndarray:
    """Oblique projections from (a, d, d_s) and (a, d, d_u) basis stacks
    whose first index is n0, one index at a time: an SVD condition check and
    a dense inverse per index, the route the batched assembly replaces."""
    a, d, d_s = stable.shape
    out = np.empty((a, d, d))
    for i in range(a):
        b = np.hstack([stable[i], unstable[i]])
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > COND_LIMIT:
            raise SplittingDegenerateError(
                f"stable and unstable subspaces are nearly dependent at n={n0 + i} "
                f"(condition {sv[0] / max(sv[-1], 5e-324):.3e})")
        inv = np.linalg.inv(b)
        out[i] = b[:, :d_s] @ inv[:d_s, :]
    return out


def reference_family_bases(proj):
    """Range and kernel bases of each P_n from an SVD of its own, every
    column flipped so that its largest-magnitude entry is positive: the
    per-index route the family's stacked bases replace."""
    ranges, kernels = [], []
    r = proj.stable_rank
    for p_n in proj.projections:
        u = np.linalg.svd(p_n, full_matrices=False)[0][:, :r]
        k = np.linalg.svd(p_n)[2][r:].T
        for q, out in ((u, ranges), (k, kernels)):
            q = q.copy()
            for j in range(q.shape[1]):
                if q[np.argmax(np.abs(q[:, j])), j] < 0.0:
                    q[:, j] = -q[:, j]
            out.append(q)
    return ranges, kernels


def reference_csv(header, rows) -> str:
    """CSV text of a row table, each cell formatted on its own: the old
    row-by-row writer, kept as the reference the column writer must match
    byte for byte."""

    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"
