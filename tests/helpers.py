"""Shared builders and brute-force oracles for the test suite.

The oracles here recompute expected values through a different route than
the library (plain Python loops over raw floats, or arbitrary precision via
mpmath) so that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from dicholab import (
    ConfigError,
    GreenKernel,
    GrowthRate,
    NuSequence,
    make_nu,
    make_planted_model,
    make_rate,
    spectral_norm,
)

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


def dense_operator_norm(sys, proj, rate: GrowthRate, nu: NuSequence, beta: float,
                        limit: int = 50) -> float:
    """Solution-operator norm assembled pair by pair from raw kernel blocks.

    Independent cross-check for the grid-based operator_norm_T; the
    quadratic pair count keeps it restricted to small windows.
    """
    w = sys.window[1] - sys.window[0]
    if w + 1 > limit:
        raise ConfigError(f"window length {w + 1} exceeds dense limit {limit}")
    kernel = GreenKernel(sys, proj)
    lm = rate.log_values
    ln = nu.log_values
    n_lo = 1 if sys.domain == "one_sided" else 0
    best = 0.0
    for j in range(n_lo, w + 1):
        for i in range(w + 1):
            g = spectral_norm(kernel.at(sys.window[0] + i, sys.window[0] + j))
            if g == 0.0:
                continue
            log_val = (math.log(g) - beta * float(lm[i])
                       + beta * float(lm[j]) - float(ln[j]))
            val = math.exp(log_val) if log_val < 700.0 else math.inf
            best = max(best, val)
    return best


def random_input(sys, seed, one_sided_zero=True):
    rng = np.random.default_rng(seed)
    w = sys.window[1] - sys.window[0]
    y = rng.standard_normal((w + 1, sys.dim))
    if one_sided_zero and sys.domain == "one_sided":
        y[0] = 0.0
    return y


def subspace_gap(a, b) -> float:
    """Largest principal angle, tolerating empty bases."""
    from dicholab import max_principal_angle

    return max_principal_angle(a, b)


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
