"""Green kernel, the admissible-solution operator, and its oracles.

The solver evaluates the convolution of the Green kernel with the input by
two sweeps: a forward recursion for the range part and a backward solve on
the complementary subspace for the kernel part.  The recursion takes a stack
of inputs at once and reads every block from the family's step record, the
one the decay march reads, so no step is restricted or tested twice.  Kernel
blocks are never built pair by pair: where one is needed, it is the
response to unit impulses.

A sparse boundary value problem over the same window acts as an independent
oracle: recurrence rows plus rank-reduced endpoint rows (range part of the
solution pinned at the left end, complementary part zeroed at the right
end).  In exact arithmetic both produce the window truncation of the same
series, which is what makes byte-level cross-checking meaningful.

The recursion carries family coordinates, not raw vectors, and checks each
step's scale exp(log_scale_n) (or its inverse) before using it: a scale that
overflows a double raises RepresentabilityError naming its index, and so
does a solution that leaves the double range.  The oracle and the solve
residual form the raw coefficients, under the same rule.  The extreme doubly
exponential windows are served by the log-domain routines (decay sweeps,
counterexample) instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnalysisError,
    ConfigError,
    DicholabError,
    FitError,
    KernelSingularError,
    OracleMismatchError,
    RepresentabilityError,
    SplittingDegenerateError,
)
from .dichotomy import ProjectionFamily, _log_sup, fit_certificate, step_record
from .linalg import (ANGLE_EQ_TOL, LOG_MAX, check_orthonormal, exp_or_inf, logsumexp,
                     max_principal_angle, row_norms, rowspace_basis, slope_intercept)
from .rates import (GrowthRate, NuSequence, WeightedNormSpec, check_aligned, log_norm_of_rows,
                    log_row_norms, make_abs_spec, norm)
from .system import LinearSystem, finite_or_none, representable_exp

ORACLE_TOL = 1e-8
RESIDUAL_TOL = 1e-10
#: log-domain slack the divergence table may show below its lower bound
COUNTEREXAMPLE_TOL = 1e-9
#: log-domain distance below the operator-norm supremum that counts as a tie
ARGMAX_TIE_TOL = 1e-9


@dataclass(frozen=True)
class BoundaryCondition:
    """Which solution space: half-line with prescribed initial subspace Z,
    or the full line."""

    kind: str
    z_basis: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("one_sided_Z", "two_sided"):
            raise ConfigError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "one_sided_Z":
            z = np.asarray(self.z_basis, dtype=float)
            if z.ndim != 2:
                raise ConfigError("Z basis must be a d x k matrix")
            check_orthonormal(z[None], "Z basis")
            object.__setattr__(self, "z_basis", z)


def one_sided_boundary(proj: ProjectionFamily) -> BoundaryCondition:
    """Half-line boundary with Z = the complementary subspace at the left end."""
    return BoundaryCondition(kind="one_sided_Z", z_basis=proj.kernel_basis(proj.window[0]))


def two_sided_boundary() -> BoundaryCondition:
    return BoundaryCondition(kind="two_sided")


def _green_convolve(sys: LinearSystem, proj: ProjectionFamily, ys: np.ndarray) -> np.ndarray:
    """Window truncation of the kernel series for a stack of inputs.

    ys is (W+1, k, d), one input per column, and so is the result.  Every
    column runs through its own matrix-vector products, batched per step,
    so a column comes out the same whatever else its stack holds, and one
    call serves every weight of a scan.  The range part runs forward as the
    d_s-vector s_{i+1} = e^{log_scale_i} F_i s_i + R_{i+1}^T P_{i+1} y_{i+1}:
    with no coordinates outside the range, rounding noise cannot compound at
    the expansion rate.  The complementary part runs backward as a d_u-vector
    through the stored E_i^-1.  A step the recursion cannot take refuses the
    whole stack; a column that leaves the double range does not, and each
    caller checks its own columns with _check_finite.  Both sides take the
    input's coordinates at every step in one batched product.
    """
    w, ls = sys.window[1] - sys.window[0], sys.log_scales.tolist()
    steps = _checked_steps(sys, proj)
    y = np.ascontiguousarray(ys)[..., None]  # (W+1, k, d, 1)
    d_u = sys.dim - proj.stable_rank
    with np.errstate(over="ignore", invalid="ignore"):
        s = steps.range_coords[:, None] @ y
        for i, scale in enumerate(map(math.exp, ls)):
            s[i + 1] += scale * (steps.range_steps[i] @ s[i])
        z = np.zeros(y.shape[:2] + (d_u, 1))
        z[:w] = steps.kernel_coords[1:, None] @ y[1:]  # z[i] holds K_{i+1} y_{i+1} until set
        for i in range(w - 1, -1, -1) if d_u else ():
            z[i] = (steps.inverses[i] @ (z[i + 1] + z[i])) * math.exp(-ls[i])
        x = proj.ranges[:, None] @ s
        del s  # freed before the kernel part's temporary, which sets a wide stack's peak
        x -= proj.kernels[:, None] @ z
    return x[..., 0]


def _checked_steps(sys: LinearSystem, proj: ProjectionFamily):
    """The step record, once no step fails the recursion: each loop's first
    failure, in order, is a forward scale beyond a double, then from the top
    a singular step or such an inverse scale."""
    n0, ls, d_u = sys.window[0], sys.log_scales, sys.dim - proj.stable_rank
    steps = step_record(sys, proj)
    for i in np.flatnonzero(ls > LOG_MAX)[:1]:
        representable_exp(float(ls[i]), f"coefficient at n={n0 + i}")
    for i in np.flatnonzero(steps.singular | (ls < -LOG_MAX))[-1:] if d_u else ():
        if steps.singular[i]:
            raise KernelSingularError(
                f"coefficient at n={n0 + i} is singular on the complementary subspace")
        representable_exp(-float(ls[i]), f"inverse coefficient at n={n0 + i}")
    return steps


def _check_finite(n0: int, *parts: np.ndarray) -> None:
    """RepresentabilityError naming the first index at which a column of the
    solution stacks ``parts``, each (W+1, k, d), leaves the double range."""
    ok = np.logical_and.reduce([np.all(np.isfinite(p), axis=(1, 2)) for p in parts])
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise RepresentabilityError(f"solution at n={n0 + int(bad[0])} is beyond a double")


@dataclass(frozen=True)
class SolveReport:
    """Solution plus the measured norms behind the admissibility bound."""

    window: tuple[int, int]
    beta: float
    variant: str
    boundary_kind: str
    solution: np.ndarray = field(repr=False)
    max_residual: float = 0.0
    input_norm_1beta: float = 0.0
    solution_norm_infbeta: float = 0.0
    bound_constant: float = 0.0
    left_constraint_norm: float = 0.0

    def to_json(self) -> dict:
        f = finite_or_none
        return {
            "window": list(self.window),
            "beta": self.beta,
            "variant": self.variant,
            "boundary_kind": self.boundary_kind,
            "max_residual": f(self.max_residual),
            "input_norm_1beta": f(self.input_norm_1beta),
            "solution_norm_infbeta": f(self.solution_norm_infbeta),
            "bound_constant": f(self.bound_constant),
            "left_constraint_norm": f(self.left_constraint_norm),
            "solution": [
                {"n": int(self.window[0] + i), "values": v}
                for i, v in enumerate(self.solution.tolist())
            ],
        }


def _check_solve_inputs(sys, proj, ys, rate, nu, boundary):
    """The inputs ys as one (k, W+1, d) stack, each checked; the Z basis once."""
    check_aligned(sys, proj, rate, nu)
    shape = (sys.window[1] - sys.window[0] + 1, sys.dim)
    ys = [np.asarray(y, dtype=float) for y in ys]
    for y in ys:
        if y.shape != shape:
            raise ConfigError(f"input sequence must have shape {shape}, got {y.shape}")
    ys = np.stack(ys) if ys else np.zeros((0,) + shape)
    if not np.all(np.isfinite(ys)):
        raise ConfigError("input sequence must be finite")
    if boundary.kind == "one_sided_Z":
        if sys.domain != "one_sided":
            raise ConfigError("one-sided boundary on a two-sided system")
        if np.any(np.linalg.norm(ys[:, 0], axis=-1) != 0.0):
            raise ConfigError("one-sided inputs must vanish at index 0")
        z, k = boundary.z_basis, proj.kernel_basis(sys.window[0])
        if z.shape != k.shape or max_principal_angle(z, k) > ANGLE_EQ_TOL:
            raise ConfigError(f"Z basis does not span the family's complement at n={sys.window[0]}")
    elif sys.domain != "two_sided":
        raise ConfigError("two-sided boundary on a one-sided system")
    return ys


def solve_admissibility(sys: LinearSystem, proj: ProjectionFamily, y, beta: float,
                        rate: GrowthRate, nu: NuSequence,
                        boundary: BoundaryCondition,
                        variant: str = "plain") -> SolveReport:
    """Solve x_{n+1} - A_n x_n = y_{n+1} in the weighted spaces.

    The report carries the input 1-norm, the solution sup-norm and their
    ratio, which the dichotomy estimates bound by the constant D.
    """
    (y,) = _check_solve_inputs(sys, proj, [y], rate, nu, boundary)
    if variant not in ("plain", "abs"):
        raise ConfigError(f"unknown norm variant {variant!r}")
    x = _green_convolve(sys, proj, y[:, None])
    _check_finite(sys.window[0], x)
    if variant == "plain":
        in_spec = WeightedNormSpec(beta=float(beta), p=1)
        sol_spec = WeightedNormSpec(beta=float(beta), p=math.inf)
    else:
        in_spec = make_abs_spec(rate, beta, p=1)
        sol_spec = make_abs_spec(rate, beta, p=math.inf)
    return _solve_report(sys, proj, y, x[:, 0], beta, boundary, variant, sys.matrices(),
                         norm(y, in_spec, rate, nu), norm(x[:, 0], sol_spec, rate, nu))


def _solve_report(sys, proj, y, x, beta, boundary, variant, raws, in_norm, sol_norm):
    """The report on the solution x (W+1, d) of input y, of weighted norms
    in_norm and sol_norm, its residual taken against the raw coefficients."""
    resid = x[1:] - np.einsum("kij,kj->ki", raws, x[:-1]) - y[1:]
    max_resid = float(np.max(row_norms(resid))) if resid.size else 0.0
    if in_norm == 0.0:
        bound_c = 0.0 if sol_norm == 0.0 else float("inf")
    else:
        bound_c = sol_norm / in_norm

    p0 = proj.matrix_at(sys.window[0])
    left = float(np.linalg.norm(p0 @ (x[0] - y[0])))

    return SolveReport(
        window=sys.window, beta=float(beta), variant=variant,
        boundary_kind=boundary.kind, solution=x,
        max_residual=max_resid, input_norm_1beta=in_norm,
        solution_norm_infbeta=sol_norm, bound_constant=bound_c,
        left_constraint_norm=left,
    )


def oracle_solve(sys: LinearSystem, proj: ProjectionFamily, y,
                 boundary: BoundaryCondition,
                 reference: np.ndarray | None = None) -> np.ndarray:
    """Independent solver: one sparse square boundary value problem.

    Recurrence rows for every step; the left endpoint pins the range part of
    x to that of y, the right endpoint zeroes the complementary part.  y is
    one input or a (k, W+1, d) stack, one factorization with k right-hand
    sides; a solution that is not finite refuses the call.  Each solution
    is checked against its ``reference`` (shaped as y), if given, by
    _check_oracle.
    """
    one = np.ndim(y) != 3
    ys = _check_solve_inputs(sys, proj, [y] if one else y, None, None, boundary)
    k, w, d = len(ys), sys.window[1] - sys.window[0], sys.dim
    d_s = proj.stable_rank
    n_unknowns = (w + 1) * d
    raws = sys.matrices()
    # recurrence rows x_{i+1} - A_i x_i = y_{i+1}, zero entries of A_i skipped
    diag = np.arange(w * d)
    i, j, c = np.nonzero(raws)
    # endpoint rows: d_s pinning the range part of x_0, d - d_s zeroing the
    # complementary part of x_W
    v_s = rowspace_basis(proj.matrix_at(sys.window[0]), d_s)
    w_u = rowspace_basis(np.eye(d) - proj.matrix_at(sys.window[1]), d - d_s)
    e_row, e_col = np.indices((d, d)).reshape(2, -1)
    rows = np.concatenate([diag, i * d + j, w * d + e_row])
    cols = np.concatenate([diag + d, i * d + c, e_col + np.where(e_row < d_s, 0, w * d)])
    vals = np.concatenate([np.ones(w * d), -raws[i, j, c], np.vstack([v_s.T, w_u.T]).ravel()])
    rhs = np.zeros((n_unknowns, k))
    rhs[: w * d] = ys[:, 1:].reshape(k, w * d).T
    for col, y0 in enumerate(ys[:, 0]):  # one matrix-vector product per input, as alone
        rhs[w * d: w * d + d_s, col] = v_s.T @ y0

    import scipy.sparse.linalg  # SciPy's only user: no other run loads it
    mat = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_unknowns, n_unknowns))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
        sol = scipy.sparse.linalg.spsolve(mat, rhs)
    if not np.all(np.isfinite(sol)):
        raise SplittingDegenerateError("boundary value system is singular")
    x = sol.reshape(n_unknowns, k).T.reshape(k, w + 1, d)
    for xj, ref in zip(x, () if reference is None else np.reshape(reference, x.shape)):
        _check_oracle(sys.window[0], xj, ref, None)
    return x[0] if one else x


def _check_oracle(n0, x, ref, beta):
    """OracleMismatchError naming beta (if any) and the worst index, unless the
    oracle's x and the recursion's ref agree to ORACLE_TOL relative to the larger."""
    diff = row_norms(x - ref)
    denom = max(float(np.max(row_norms(ref))), float(np.max(row_norms(x))))
    if denom > 0.0 and (rel := float(np.max(diff)) / denom) > ORACLE_TOL:
        at = "" if beta is None else f"beta={float(beta):g}, "
        raise OracleMismatchError(f"solver and oracle disagree: relative error {rel:.3e} "
                                  f"at {at}n={n0 + int(np.argmax(diff))}")


def operator_norm_sup(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                      nu: NuSequence, beta: float):
    """(exact_sup, (m, n)): the solution-operator norm, maximized over window
    pairs in the log domain so that it stands where raw steps overflow.  Of
    the cells within ARGMAX_TIE_TOL of the maximum, (m, n) is the one of
    smallest |m - n|, then smallest n, then the stable side, so that digits
    rounding moves cannot move the pair."""
    log_sup, s_grid, u_grid = _log_sup(sys, proj, rate, nu, beta)
    for g in (s_grid, u_grid):
        np.fmax(g, -np.inf, out=g)  # NaN cells to -inf, in this call's own grid
    cells = [np.argwhere(g >= log_sup - ARGMAX_TIE_TOL) for g in (s_grid, u_grid)]
    side = np.repeat([0, 1], [len(c) for c in cells])
    cells = np.concatenate(cells)
    m, n = cells[np.lexsort((side, cells[:, 1], np.abs(cells[:, 0] - cells[:, 1])))[0]]
    return exp_or_inf(log_sup), (sys.window[0] + int(m), sys.window[0] + int(n))


def operator_norm_T(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                    nu: NuSequence, beta: float, n_samples: int = 6,
                    seed: int = 0) -> dict:
    """Norm of the solution operator between the weighted spaces.

    exact_sup is operator_norm_sup; sampled_lb drives the solver with an
    impulse at the maximizing pair (m*, k*), which attains the supremum, and
    with seeded random inputs of unit weighted 1-norm.  The kernel block at
    that pair is read off the response to d unit impulses at k*, which go
    through the recursion in one stack with the random inputs; the response
    to the impulse along the block's top right singular vector is theirs,
    combined along that vector.  Those raw-domain solves raise
    RepresentabilityError where a step overflows a double, and so does an
    impulse whose weighted norm underflows.  A sampled bound above the
    supremum means the two disagree: OracleMismatchError.  The one-weight
    case of scan_betas.
    """
    (out,) = scan_betas(sys, proj, (), [beta], rate, nu, None, n_samples, seed)
    if isinstance(out, DicholabError):
        raise out
    return out[1]


def scan_betas(sys: LinearSystem, proj: ProjectionFamily, ys, betas, rate: GrowthRate,
               nu: NuSequence, boundary: BoundaryCondition | None, n_samples: int = 6,
               seed: int = 0) -> list:
    """Per weight betas[j], (solve_admissibility of input ys[j], operator_norm_T)
    with the solve checked against oracle_solve, or the DicholabError that
    this sequence meets first for that weight; with no inputs ys, the
    operator norms alone, and None for each report.

    All weights share one recursion call, so one weight's failure is its
    own, and only a step the recursion cannot take fails them all.  It
    stacks, for every weight, ys[j], d unit impulses at its k* and the
    samples: one set of seeded draws, each scaled to unit weighted 1-norm at
    that weight.  The solution is linear in its input, so the response to a
    weight's top singular impulse is its unit responses combined along the
    top right singular vector of their block at (m*, k*).  The oracle takes
    every ys[j] in one factorization, or each alone if it refuses the stack;
    the term norms are taken once, and a weight's norms in one stacked
    1-norm call and one sup-norm call.
    """
    n0, w, d = sys.window[0], sys.window[1] - sys.window[0], sys.dim
    check_aligned(sys, proj, rate, nu)
    if len(ys):  # the solves come first: a step they cannot take fails every weight
        try:
            _checked_steps(sys, proj)
        except DicholabError as e:
            _check_solve_inputs(sys, proj, ys, rate, nu, boundary)  # a bad input before it
            return [e] * len(betas)
        try:  # it checks the inputs, the Z basis once for the scan
            oracle = oracle_solve(sys, proj, ys, boundary)
        except AnalysisError:  # a solution it cannot take: each weight solves its own
            oracle = None
    ys = np.asarray(ys, dtype=float).reshape(-1, w + 1, d)
    draws = np.random.default_rng([int(seed), 7]).standard_normal((n_samples, w + 1, d))
    if sys.domain == "one_sided":
        draws[:, 0] = 0.0
    # the term norms of the inputs and the draws, taken once: no weight changes them
    k, solves = len(ys), min(len(ys), 1)  # solves: each weight's count of solve inputs
    log_ys, log_draws = np.split(log_row_norms(np.concatenate([ys, draws]), rate), [k])
    # per weight, (exact, (m*, k*), its first impulse column or None, kept draws
    # (index, scale), their columns, its input's 1-norm)
    plans = []
    for j, beta in enumerate(betas):
        exact, pair = operator_norm_sup(sys, proj, rate, nu, beta)
        imp = k if exact > 0.0 and math.isfinite(exact) else None
        k += 0 if imp is None else d
        # its solve input's 1-norm, if any, and the draws' in one stacked call
        scales = exp_or_inf(log_norm_of_rows(np.concatenate([log_ys[j:j + solves], log_draws]),
                                             WeightedNormSpec(beta=float(beta), p=1), rate,
                                             nu)).tolist()
        in_norm = scales.pop(0) if solves else None
        kept = [(i, s) for i, s in enumerate(scales) if s > 0.0 and math.isfinite(s)]
        plans.append((exact, pair, imp, kept, slice(k, k + len(kept)), in_norm))
        k += len(kept)

    stack = np.zeros((w + 1, k, d))
    stack[:, :len(ys)] = ys.transpose(1, 0, 2)
    for _, (_, k_star), imp, kept, cols, _ in plans:
        if imp is not None:
            stack[k_star - n0, imp:imp + d] = np.eye(d)
        with np.errstate(over="ignore"):  # _check_finite reports it per weight
            for col, (i, s) in enumerate(kept, cols.start):
                np.divide(draws[i], s, out=stack[:, col])
    try:
        x = _green_convolve(sys, proj, stack) if k else stack
    except DicholabError as e:  # a step the recursion cannot take
        return [e] * len(betas)

    out, raws = [], None
    for j, (beta, plan) in enumerate(zip(betas, plans)):
        try:
            if solves:
                _check_finite(n0, x[:, j:j + 1])
                raws = sys.matrices() if raws is None else raws
                sol = np.ascontiguousarray(x[:, j])
                xo = oracle[j] if oracle is not None else oracle_solve(sys, proj, ys[j], boundary)
                _check_oracle(n0, xo, sol, beta)
            exact, (m_star, k_star), imp, _, cols, in_norm = plan
            lbs = []  # the top impulse's response, then the samples'
            if imp is not None:
                units = x[:, imp:imp + d]
                _check_finite(n0, units)
                _, _, vt = np.linalg.svd(units[m_star - n0].T)
                y = np.zeros((w + 1, d))
                y[k_star - n0] = vt[0]
                scale = norm(y, WeightedNormSpec(beta=float(beta), p=1), rate, nu)
                if not (scale > 0.0 and math.isfinite(1.0 / scale)):
                    raise RepresentabilityError(f"impulse at k*={k_star}: its unit-norm "
                                                f"scale 1/{scale:.3e} is beyond a double")
                # the response is linear in the input: the unit responses, combined
                with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
                    lbs.append(vt[:1] @ units / scale)
            lbs.append(x[:, cols])
            _check_finite(n0, *lbs)
            # the solution's sup-norm, if any, and the bound's in one stacked call
            resp = np.concatenate([p.transpose(1, 0, 2) for p in [x[:, j:j + solves]] + lbs])
            sups = norm(resp, WeightedNormSpec(beta=float(beta), p=math.inf), rate, nu).tolist()
            sol_norm = sups.pop(0) if solves else None
            lb = max(sups, default=0.0)
            if lb > exact * (1.0 + ORACLE_TOL):
                raise OracleMismatchError(
                    f"beta={float(beta):g}: sampled lower bound {lb:.6e} exceeds the "
                    f"exact supremum {exact:.6e}"
                )
            rep = (_solve_report(sys, proj, ys[j], sol, beta, boundary, "plain", raws, in_norm,
                                 sol_norm) if solves else None)
            out.append((rep, {"exact_sup": exact, "sampled_lb": lb,
                              "argmax_pair": [int(m_star), int(k_star)],
                              "samples": sum(p.shape[1] for p in lbs)}))
        except DicholabError as e:
            out.append(e)
    return out


def uniqueness_probe(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                     nu: NuSequence, beta: float, z_basis) -> dict:
    """Margin test behind uniqueness: weighted homogeneous orbits out of the
    candidate initial subspace must grow, so they leave every bounded ball.
    The margin per unit of log mu is half of lam - |beta| - eps from the
    fitted certificate, and unbounded when no certificate fits.

    Finite windows cannot certify an asymptotic statement; the verdict is
    "uniqueness plausible", "inconclusive", or "vacuously unique" for the
    zero subspace.
    """
    check_aligned(sys, proj, rate, nu)
    z = np.asarray(z_basis, dtype=float)
    if z.ndim != 2 or z.shape[0] != sys.dim:
        raise ConfigError("Z basis must be a d x k matrix")
    lm = rate.log_values
    k = z.shape[1]
    if k == 0:
        return {"verdict": "vacuously unique", "margin": 0.0, "slopes": [],
                "traces": np.zeros((lm.size, 0)), "beta": float(beta)}

    try:
        cert = fit_certificate(sys, proj, rate, nu)
        margin = max(0.0, (cert.lam - abs(beta) - cert.eps) / 2.0)
    except FitError:
        margin = math.inf

    w = sys.window[1] - sys.window[0]
    traces = np.empty((w + 1, k))
    for j in range(k):
        v = z[:, j] / np.linalg.norm(z[:, j])
        c = 0.0
        traces[0, j] = beta * lm[0]
        for i in range(w):
            v = sys.mats[i] @ v
            s = float(np.linalg.norm(v))
            if s == 0.0 or sys.log_scales[i] == float("-inf"):
                c = -math.inf
                traces[i + 1:, j] = -math.inf
                break
            v /= s
            c += float(sys.log_scales[i]) + math.log(s)
            traces[i + 1, j] = beta * lm[i + 1] + c

    slopes = []
    ok = True
    for j in range(k):
        col = traces[:, j]
        if not np.all(np.isfinite(col)):
            slopes.append(-math.inf)
            ok = False
            continue
        sl, _ = slope_intercept(lm, col)
        slopes.append(float(sl))
        if not sl >= margin:
            ok = False
    verdict = "uniqueness plausible" if ok else "inconclusive"
    return {"verdict": verdict, "margin": float(margin),
            "slopes": slopes, "traces": traces, "beta": float(beta)}


def run_counterexample(n_max: int):
    """Table (n, log x_n, log lower_bound) for the divergence example.

    The input sequence has unit weighted 1-norm term by term, yet the
    solution's weighted sup-norm grows without bound: admissibility genuinely
    needs the summability of the input side.  All arithmetic stays in the
    log domain; the raw sequence values dwarf double range almost instantly.
    """
    if not isinstance(n_max, int) or not 1 <= n_max <= 40:
        raise ConfigError("n_max must be an integer in [1, 40]")
    e_pow = np.exp(np.arange(0.0, n_max + 2.0))  # log mu_n for n = 0..n_max+1

    # log of the k-th summand: log(1/phi_k) + log mu_k / 2
    deltas = e_pow[1:] - e_pow[:-1]
    log_inv_phi = deltas + np.log1p(-np.exp(-deltas))
    terms = log_inv_phi + 0.5 * e_pow[:-1]

    rows = []
    for n in range(1, n_max + 1):
        log_x = -0.5 * e_pow[n] + logsumexp(terms[1: n + 1])
        a = 0.5 * (e_pow[n + 1] - e_pow[n])
        b = 0.5 * (e_pow[1] - e_pow[n])
        log_bound = math.log(2.0) + a + math.log1p(-math.exp(b - a))
        if log_x + COUNTEREXAMPLE_TOL < log_bound:
            raise AnalysisError(
                f"divergence table violated its lower bound at n={n}"
            )
        rows.append((n, float(log_x), float(log_bound)))
    return rows
