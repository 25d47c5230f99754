"""Nonautonomous linear difference equations x_{n+1} = A_n x_n on a window.

Coefficients are stored in a scaled form A_n = exp(log_scale_n) * M_n.  For
moderate systems this is invisible; for systems tied to fast rates (doubly
exponential) the raw A_n underflow or overflow doubles long before the window
ends, while the scaled form stays exact in the log domain.  M_n has unit
spectral norm, to rounding, only where the builder divides the norm out: raw
matrices, JSON rows without a log scale and perturbed systems.  A planted
model's M_n is the conjugated core L_{n+1} C_n L_n^-1, whose norm lies
between 1 and cond, and JSON rows with an explicit log scale are kept as
given.  So code that compares M_n with a tolerance reads it relative to
||M_n||.

The planted-model builder manufactures systems with a known dichotomy:
block-diagonal contraction/expansion coefficients conjugated by a similarity
L_n = Q_n W, with Q_n Haar orthogonal per index and W a fixed matrix of
bounded condition number.  Orthogonal factors drop out of every spectral
norm, so the planted decay data stays exactly linear in log mu and the
ground-truth constants are sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RepresentabilityError
from .linalg import LOG_MAX, haar_stack, random_bounded_cond, renormalized_product, spectral_norm
from .rates import GrowthRate, NuSequence, check_aligned, check_window, sub_window


#: a planted frame W of condition number cond has no inverse in double
#: precision once cond * eps >= 1
MAX_PLANTED_COND = 1.0 / np.finfo(float).eps


def representable_exp(log_value: float, where: str) -> float:
    """exp(log_value), or RepresentabilityError naming ``where`` on overflow."""
    if log_value > LOG_MAX:
        raise RepresentabilityError(
            f"{where} has log scale {log_value:.3g}; "
            "use the scaled interfaces for this system"
        )
    return math.exp(log_value)


def finite_or_none(x) -> float | None:
    """A report value for JSON: the float, or None when absent or not finite."""
    return float(x) if x is not None and math.isfinite(x) else None


@dataclass(frozen=True)
class LinearSystem:
    """Coefficients A_n for n = window[0] .. window[1]-1."""

    dim: int
    domain: str
    window: tuple[int, int]
    log_scales: np.ndarray = field(repr=False)
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        n_min, n_max = check_window(self.window, self.domain)
        w = n_max - n_min
        ls = np.asarray(self.log_scales, dtype=float)
        ms = np.asarray(self.mats, dtype=float)
        if ls.shape != (w,) or ms.shape != (w, self.dim, self.dim):
            raise ConfigError("coefficient arrays do not match window and dim")
        if np.any(np.isposinf(ls)) or np.any(np.isnan(ls)):
            raise ConfigError("log scales must be finite or -inf")
        if not np.all(np.isfinite(ms)):
            raise ConfigError("coefficient matrices must have finite entries")
        ms = ms.copy()
        ms[np.isneginf(ls)] = 0.0
        object.__setattr__(self, "log_scales", ls)
        object.__setattr__(self, "mats", ms)

    @classmethod
    def from_matrices(cls, matrices, domain, window) -> "LinearSystem":
        """Build from raw A_n, given as (W, d, d) array aligned with the window."""
        a = np.asarray(matrices, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ConfigError("matrices must be a (steps, d, d) array")
        if not np.all(np.isfinite(a)):
            raise ConfigError("coefficient matrices must have finite entries")
        scales = spectral_norm(a)
        with np.errstate(divide="ignore"):
            ls = np.log(scales)
        ms = np.where(scales[:, None, None] > 0, a / np.where(scales == 0, 1.0, scales)[:, None, None], 0.0)
        return cls(dim=a.shape[1], domain=domain, window=tuple(window), log_scales=ls, mats=ms)

    @classmethod
    def from_scaled(cls, log_scales, mats, domain, window) -> "LinearSystem":
        mats = np.asarray(mats, dtype=float)
        return cls(dim=mats.shape[1], domain=domain, window=tuple(window),
                   log_scales=np.asarray(log_scales, dtype=float), mats=mats)

    def step_index(self, n: int) -> int:
        if n < self.window[0] or n >= self.window[1]:
            raise ConfigError(f"no coefficient at index {n} (window {self.window})")
        return n - self.window[0]

    def matrix(self, n: int) -> np.ndarray:
        """Raw A_n; raises if exp(log_scale) is not representable."""
        i = self.step_index(n)
        ls = self.log_scales[i]
        if ls == float("-inf"):
            return np.zeros((self.dim, self.dim))
        return representable_exp(ls, f"coefficient at n={n}") * self.mats[i]

    def matrices(self) -> np.ndarray:
        """Every raw A_n as one (W, d, d) stack, with the bits of matrix(n);
        raises as matrix(n) does for the first n whose scale overflows."""
        for i in np.flatnonzero(self.log_scales > LOG_MAX)[:1]:
            self.matrix(self.window[0] + int(i))
        # math.exp, not np.exp: the two differ in the last bit on some scales
        scales = np.array([math.exp(v) for v in self.log_scales.tolist()])
        return scales[:, None, None] * self.mats

    def restrict(self, n_lo: int, n_hi: int) -> "LinearSystem":
        """Sub-window [n_lo, n_hi]; keeps the domain unless the left end moves."""
        i0, i1, domain = sub_window(self.window, self.domain, n_lo, n_hi)
        return LinearSystem(dim=self.dim, domain=domain, window=(n_lo, n_hi),
                            log_scales=self.log_scales[i0:i1 - 1].copy(),
                            mats=self.mats[i0:i1 - 1].copy())


def evolution_scaled(sys: LinearSystem, m: int, n: int):
    """Forward evolution A(m, n) as (log_scale, M) with spectral norm of M
    equal to 1; see ``linalg.renormalized_product``."""
    if m < n:
        raise ConfigError("evolution runs forward: need m >= n")
    if m == n:
        return 0.0, np.eye(sys.dim)
    i0, i1 = sys.step_index(n), sys.step_index(m - 1) + 1
    return renormalized_product(sys.mats[i0:i1], sys.log_scales[i0:i1])


@dataclass(frozen=True)
class PlantedModel:
    """A system with known dichotomy data, for oracles and regression tests."""

    system: LinearSystem
    projections: "object"
    certificate: "object"
    similarity: np.ndarray = field(repr=False)
    kernel_basis_at_start: np.ndarray = field(repr=False)


def make_planted_model(rate: GrowthRate, nu: NuSequence, lam_s: float, lam_u: float,
                       dims: tuple[int, int], cond: float = 1.0, seed: int = 0) -> PlantedModel:
    """Plant a dichotomy with decay lam_s, growth lam_u and a nu twist.

    Stable coefficient s_n = (mu_{n+1}/mu_n)^{-lam_s} * nu_n/nu_{n+1}, unstable
    u_n = (mu_{n+1}/mu_n)^{lam_u}.  With cond == 1 the similarity is the
    identity; otherwise L_n = Q_n W with fresh Haar Q_n per index and a fixed
    W of condition number cond, which leaves every planted norm exact.
    """
    from .dichotomy import DichotomyCertificate, ProjectionFamily

    if lam_s <= 0 or lam_u <= 0:
        raise ConfigError("planted exponents must be positive")
    d_s, d_u = int(dims[0]), int(dims[1])
    d = d_s + d_u
    if d < 1 or d_s < 0 or d_u < 0:
        raise ConfigError("need at least one dimension")
    if not cond < MAX_PLANTED_COND:
        raise ConfigError(f"planted cond {cond:g} reaches 1/eps = {MAX_PLANTED_COND:g}: "
                          "its frame has no inverse in double precision")
    check_aligned(rate, nu)

    n_min, n_max = rate.window
    w = n_max - n_min
    lm = rate.log_values
    ln = nu.log_values

    if cond <= 1.0:
        w_fix = w_inv = np.eye(d)
        sims = np.broadcast_to(np.eye(d), (w + 1, d, d)).copy()
        sims_inv = sims.copy()
    else:
        root = np.random.default_rng([int(seed), 0x5EED])
        w_fix = random_bounded_cond(root, d, cond)
        w_inv = np.linalg.inv(w_fix)
        qs = haar_stack(seed, 1, n_min, w + 1, d)
        sims = qs @ w_fix
        sims_inv = w_inv @ np.swapaxes(qs, 1, 2)

    j = np.zeros((d, d))
    j[:d_s, :d_s] = np.eye(d_s)

    dl = lm[1:] - lm[:-1]
    log_s = -(lam_s * dl) + (ln[:-1] - ln[1:])
    log_u = lam_u * dl
    log_scales = log_s if d_u == 0 else log_u
    cores = np.broadcast_to(np.eye(d), (w, d, d)).copy()
    if d_s and d_u:
        # the stable block rides inside the unstable scale; exp underflows
        # to zero harmlessly when the gap is extreme (math.exp, not np.exp:
        # the two differ in the last bit on some gaps)
        gap = log_s - log_u
        for i in np.flatnonzero(gap > LOG_MAX)[:1]:
            raise ConfigError(f"planted stable coefficient at n={n_min + int(i)} exceeds the "
                              f"unstable one by log {gap[i]:.3g}, beyond a double")
        cores[:, :d_s, :d_s] *= np.array(
            [math.exp(g) if g > -745.0 else 0.0 for g in gap.tolist()])[:, None, None]
    mats = sims[1:] @ cores @ sims_inv[:-1]

    system = LinearSystem(dim=d, domain=rate.domain, window=rate.window,
                          log_scales=log_scales, mats=mats)

    projs = sims @ j @ sims_inv
    family = ProjectionFamily(window=rate.window, projections=projs, stable_rank=d_s)

    d_true = 1.0
    if 0 < d_s:
        d_true = max(d_true, spectral_norm(w_fix @ j @ w_inv))
    if 0 < d_u:
        d_true = max(d_true, spectral_norm(w_fix @ (np.eye(d) - j) @ w_inv))
    lam_true = min(lam_s if d_s > 0 else lam_u, lam_u if d_u > 0 else lam_s)
    eps_true = nu.epsilon if nu.epsilon is not None else 0.0
    cert = DichotomyCertificate(D=float(d_true), lam=float(lam_true), eps=float(eps_true))

    z0 = sims[0][:, d_s:]
    if d_u > 0:
        z0 = np.linalg.qr(z0)[0]
    return PlantedModel(system=system, projections=family, certificate=cert,
                        similarity=sims, kernel_basis_at_start=z0)


def system_to_json(sys: LinearSystem) -> dict:
    return {
        "dim": sys.dim,
        "domain": sys.domain,
        "window": list(sys.window),
        "matrices": [
            {
                "n": int(sys.window[0] + i),
                "rows": sys.mats[i].tolist(),
                "log_scale": None if sys.log_scales[i] == float("-inf") else float(sys.log_scales[i]),
            }
            for i in range(sys.window[1] - sys.window[0])
        ],
    }


def system_from_json(doc: dict) -> LinearSystem:
    window = (int(doc["window"][0]), int(doc["window"][1]))
    w = window[1] - window[0]
    d = int(doc["dim"])
    log_scales = np.full(w, float("-inf"))
    mats = np.zeros((w, d, d))
    seen = set()
    for entry in doc["matrices"]:
        n = int(entry["n"])
        i = n - window[0]
        if i < 0 or i >= w or i in seen:
            raise ConfigError(f"matrix index {n} outside window or duplicated")
        seen.add(i)
        rows = np.asarray(entry["rows"], dtype=float)
        if rows.shape != (d, d):
            raise ConfigError(f"matrix at n={n} has wrong shape")
        if not np.all(np.isfinite(rows)):
            raise ConfigError(f"matrix at n={n} has a non-finite entry")
        if entry.get("log_scale") is None:
            s = spectral_norm(rows)
            if s > 0:
                mats[i] = rows / s
                log_scales[i] = math.log(s)
        else:
            mats[i] = rows
            log_scales[i] = float(entry["log_scale"])
    if len(seen) != w:
        raise ConfigError("missing coefficient matrices")
    return LinearSystem(dim=d, domain=doc["domain"], window=window,
                        log_scales=log_scales, mats=mats)

