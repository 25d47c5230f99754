"""Perturbations at the edge of the admissible size, and what survives them.

The perturbation budget per step is a product of a summable envelope, the
weight ratio of consecutive indices, and a global amplitude.  Generated
perturbations saturate that budget exactly: each B_n is the budget radius
times a Haar-random orthogonal direction, so its spectral norm attains the
bound with equality and any persistence observed is persistence under the
worst admissible magnitude.

The smallness margin mirrors the contraction argument: the difference
operator is invertible with the solution operator as inverse, so a
perturbation whose relative size (amplitude times envelope sum times
solution-operator norm, with a triangle-inequality envelope for the graph
norm) stays below one cannot destroy invertibility.  The prediction is one
directional: margin below one forces persistence, margin above one merely
stops promising it.

The unperturbed base is characterized once and may be handed to
verify_persistence, so a sweep over amplitudes or direction seeds
characterizes it once for all its points and draws each direction seed's
Haar stack (perturbation_directions) once, at the seed's first point.  The
margin is taken on the base's own restricted system and family, so its
grids come from the decay march the base's certificate fit already made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dichotomy import DichotomyCertificate, ProjectionFamily, _log_sup
from .errors import AnalysisError, ConfigError, RepresentabilityError
from .linalg import LOG_MAX, exp_or_inf, haar_stack, max_principal_angle, spectral_norm
from .rates import GrowthRate, NuSequence, check_aligned
from .splitting import GAP_THRESHOLD, CharacterizeResult, characterize
from .system import LinearSystem, finite_or_none

PERT_STREAM = 11


def geometric_gamma(window, ratio: float = 0.5) -> np.ndarray:
    """Envelope gamma_i = ratio**i over the window's steps."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError("ratio must lie in (0, 1)")
    w = window[1] - window[0]
    return ratio ** np.arange(w, dtype=float)


@dataclass(frozen=True)
class PerturbationSpec:
    """Budget data: per-step envelope, amplitude, direction seed, weight."""

    gamma: np.ndarray = field(repr=False)
    c: float = 0.1
    seed: int = 0
    beta: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ConfigError("gamma must be a nonempty vector over the steps")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise ConfigError("gamma entries must be positive finite")
        if not math.isfinite(float(np.sum(g))):
            raise ConfigError("gamma must have a finite sum")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ConfigError("amplitude c must be finite and nonnegative")
        if not math.isfinite(self.beta):
            raise ConfigError("beta must be finite")
        object.__setattr__(self, "gamma", g)

    @property
    def gamma_sum(self) -> float:
        return float(np.sum(self.gamma))


def perturbation_radii(rate: GrowthRate, nu: NuSequence, spec: PerturbationSpec) -> np.ndarray:
    """Per-step norm budget, computed in the log domain so extreme weight
    ratios cannot overflow before they cancel.  A budget beyond a double is
    a RepresentabilityError naming its step: the perturbation it allows
    cannot be built."""
    check_aligned(rate, nu)
    lm = rate.log_values
    ln = nu.log_values
    if spec.gamma.size != lm.size - 1:
        raise ConfigError("gamma length must equal the number of steps")
    if spec.c == 0.0:
        return np.zeros(spec.gamma.size)
    log_rho = (math.log(spec.c) + np.log(spec.gamma)
               + spec.beta * lm[:-1] - ln[1:] - spec.beta * lm[1:])
    over = np.flatnonzero(log_rho > LOG_MAX)
    if over.size:
        i = int(over[0])
        raise RepresentabilityError(
            f"perturbation budget at n={rate.window[0] + i} has log size "
            f"{log_rho[i]:.3g}, beyond a double")
    return np.exp(log_rho)


def make_perturbation(sys: LinearSystem, rate: GrowthRate, nu: NuSequence,
                      spec: PerturbationSpec) -> np.ndarray:
    """Step matrices B_n saturating the admissible budget in random directions.

    Orthogonal directions have spectral norm one exactly, so the measured
    norm of B_n equals its budget radius to rounding.
    """
    check_aligned(sys, rate, nu)
    rho = perturbation_radii(rate, nu, spec)
    if spec.c == 0.0:
        return np.zeros((rho.size, sys.dim, sys.dim))
    return rho[:, None, None] * perturbation_directions(sys, spec.seed)


def perturbation_directions(sys: LinearSystem, seed: int) -> np.ndarray:
    """The Haar-random orthogonal direction of each B_n under a direction seed."""
    return haar_stack(seed, PERT_STREAM, sys.window[0], sys.window[1] - sys.window[0], sys.dim)


def perturbed_system(sys: LinearSystem, b: np.ndarray) -> LinearSystem:
    """System with coefficients A_n + B_n, assembled in scaled form.

    Each step is rescaled around the larger of the two summands so neither
    an enormous nor a vanishing coefficient forces a raw-magnitude overflow.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (sys.window[1] - sys.window[0], sys.dim, sys.dim):
        raise ConfigError("perturbation shape must match the system's steps")
    if not np.all(np.isfinite(b)):
        raise ConfigError("perturbation entries must be finite")
    nbs = spectral_norm(b)
    # math.log and math.exp per step, not numpy's: they differ in the last bit
    # on some values.  A -inf summand is left out by a zero weight on a zero
    # matrix, and 0.0 + turns a -0.0 entry into the +0.0 a sum starts from
    la = sys.log_scales.tolist()
    lb = [math.log(v) if v > 0.0 else -math.inf for v in nbs.tolist()]
    pivots = [max(x, y) for x, y in zip(la, lb)]
    wa, wb = (np.array([math.exp(x - p) if x > -math.inf else 0.0
                        for x, p in zip(logs, pivots)])[:, None, None] for logs in (la, lb))
    cores = (0.0 + wa * sys.mats) + wb * (b / np.where(nbs > 0.0, nbs, 1.0)[:, None, None])
    # a core of norm 0 is zero: every step whose pivot is -inf, among others
    s = spectral_norm(cores)
    log_scales = [p + math.log(v) if v > 0.0 else -math.inf for p, v in zip(pivots, s.tolist())]
    cores /= np.where(s > 0.0, s, 1.0)[:, None, None]
    return LinearSystem.from_scaled(log_scales, cores, sys.domain, sys.window)


def smallness_margin(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                     nu: NuSequence, spec: PerturbationSpec) -> float:
    """Contraction estimate c * (sum gamma) * ||T|| * (1 + c * sum gamma).

    ||T|| is the solution-operator norm, the inverse of the difference
    operator; the trailing factor converts it to a graph-norm bound.  Below
    one, the perturbed difference operator stays invertible.  The system,
    rate and weights must live on the family's window: for a family from
    characterize, pass its result's restricted system, rate and nu.  The
    weight is spec.beta.
    """
    if spec.c == 0.0:
        return 0.0
    t = exp_or_inf(_log_sup(sys, proj, rate, nu, spec.beta)[0])
    cs = spec.c * spec.gamma_sum
    return float(cs * t * (1.0 + cs))


@dataclass(frozen=True)
class PersistenceReport:
    """Paired certificates, geometry drift, and the contraction margin."""

    window: tuple[int, int]
    margin: float
    verdict: str
    base_certificate: DichotomyCertificate
    pert_certificate: DichotomyCertificate | None
    max_drift: float
    drift: np.ndarray = field(repr=False)
    c: float
    gamma_sum: float
    beta: float
    seed: int
    failure: str | None = None

    def to_json(self) -> dict:
        f = finite_or_none

        def cert(c):
            if c is None:
                return None
            return {"D": c.D, "lambda": c.lam, "epsilon": c.eps}

        return {
            "window": list(self.window),
            "margin": f(self.margin),
            "verdict": self.verdict,
            "failure": self.failure,
            "base_certificate": cert(self.base_certificate),
            "perturbed_certificate": cert(self.pert_certificate),
            "max_drift": f(self.max_drift),
            "drift": [f(x) for x in self.drift.tolist()],
            "c": f(self.c),
            "gamma_sum": f(self.gamma_sum),
            "beta": f(self.beta),
            "seed": self.seed,
        }


def verify_persistence(sys: LinearSystem, b, rate: GrowthRate, nu: NuSequence,
                       spec: PerturbationSpec,
                       boundary_hint=None,
                       gap_threshold: float = GAP_THRESHOLD,
                       tail_horizon: int | None = None,
                       base: CharacterizeResult | None = None) -> PersistenceReport:
    """Characterize the system with and without the perturbation and compare.

    base, when given, is the unperturbed system already characterized with
    the same boundary_hint, gap_threshold and tail_horizon; a sweep computes
    it once and passes it to every point, and the result is the same as
    without it; a base from another window is a ConfigError.  The margin is
    taken on the base's restricted system and family, so its grids come
    from the decay march of the base's certificate fit.

    A failure while characterizing the unperturbed system propagates: there
    is no baseline to compare against.  A failure on the perturbed system is
    the measured outcome and lands in the report, stage tag and all, as does
    a change of stable rank: the splitting did not persist.
    """
    if base is None:
        base = characterize(sys, rate, nu, boundary_hint=boundary_hint,
                            gap_threshold=gap_threshold, tail_horizon=tail_horizon)
    elif base.splitting.original_window != sys.window:
        raise ConfigError("base was characterized on another window than the system's")
    sys_p = perturbed_system(sys, b)
    margin = smallness_margin(base.system, base.projections, base.rate, base.nu, spec)
    budget = dict(c=spec.c, gamma_sum=spec.gamma_sum, beta=spec.beta, seed=int(spec.seed))

    window = base.splitting.window
    try:
        pert: CharacterizeResult | None = characterize(
            sys_p, rate, nu, boundary_hint=boundary_hint,
            gap_threshold=gap_threshold, tail_horizon=tail_horizon)
    except AnalysisError as e:
        return PersistenceReport(
            window=window, margin=margin, verdict="not_persisted",
            base_certificate=base.certificate, pert_certificate=None,
            max_drift=math.nan, drift=np.zeros(0), failure=str(e), **budget)

    ranks = base.projections.stable_rank, pert.projections.stable_rank
    if ranks[0] != ranks[1]:
        drift = np.full(window[1] - window[0] + 1, math.pi / 2.0)
        failure = f"stable rank changed from {ranks[0]} to {ranks[1]} under the perturbation"
    else:
        drift = np.maximum(
            max_principal_angle(base.projections.ranges, pert.projections.ranges),
            max_principal_angle(base.projections.kernels, pert.projections.kernels))
        failure = None if pert.verify.passed else "; ".join(pert.verify.failure_reasons)
    verdict = "persisted" if failure is None else "not_persisted"
    return PersistenceReport(
        window=window, margin=margin, verdict=verdict,
        base_certificate=base.certificate, pert_certificate=pert.certificate,
        max_drift=float(np.max(drift)) if drift.size else 0.0, drift=drift,
        failure=failure, **budget)
