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
characterizes it once for all its points.  The margin is taken on the
base's own restricted system and family, so it folds from the decay march
the base's certificate fit already made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .admissibility import operator_norm_sup
from .dichotomy import DichotomyCertificate, ProjectionFamily, beta_range
from .errors import AnalysisError, ConfigError, RepresentabilityError
from .linalg import LOG_MAX, haar_stack, max_principal_angle, spectral_norm
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


def check_beta(beta: float, certificate: DichotomyCertificate, domain: str) -> None:
    """ConfigError unless beta lies in the certificate's admissible weight range."""
    lo, hi = beta_range(certificate, domain)
    if not lo < beta < hi:
        raise ConfigError(f"beta {beta:g} outside admissible range ({lo:g}, {hi:g})")


def make_perturbation(sys: LinearSystem, rate: GrowthRate, nu: NuSequence,
                      spec: PerturbationSpec,
                      certificate: DichotomyCertificate | None = None) -> np.ndarray:
    """Step matrices B_n saturating the admissible budget in random directions.

    Orthogonal directions have spectral norm one exactly, so the measured
    norm of B_n equals its budget radius to rounding.  When a reference
    certificate is supplied, beta is checked against its admissible weight
    range.
    """
    check_aligned(sys, rate, nu)
    if certificate is not None:
        check_beta(spec.beta, certificate, sys.domain)
    rho = perturbation_radii(rate, nu, spec)
    d = sys.dim
    if spec.c == 0.0:
        return np.zeros((rho.size, d, d))
    return rho[:, None, None] * haar_stack(spec.seed, PERT_STREAM, sys.window[0], rho.size, d)


def perturbed_system(sys: LinearSystem, b: np.ndarray) -> LinearSystem:
    """System with coefficients A_n + B_n, assembled in scaled form.

    Each step is rescaled around the larger of the two summands so neither
    an enormous nor a vanishing coefficient forces a raw-magnitude overflow.
    """
    b = np.asarray(b, dtype=float)
    w = sys.window[1] - sys.window[0]
    if b.shape != (w, sys.dim, sys.dim):
        raise ConfigError("perturbation shape must match the system's steps")
    if not np.all(np.isfinite(b)):
        raise ConfigError("perturbation entries must be finite")
    nbs = spectral_norm(b)
    cores = np.zeros_like(sys.mats)
    pivots = np.full(w, -math.inf)
    for i in range(w):
        la = float(sys.log_scales[i])
        lb = math.log(nbs[i]) if nbs[i] > 0.0 else -math.inf
        pivot = pivots[i] = max(la, lb)
        if la > -math.inf:
            cores[i] += math.exp(la - pivot) * sys.mats[i]
        if lb > -math.inf:
            cores[i] += math.exp(lb - pivot) * (b[i] / nbs[i])
    # a core of norm 0 is zero: every step whose pivot is -inf, among others
    s = spectral_norm(cores)
    log_scales = np.full(w, -math.inf)
    for i in np.flatnonzero(s > 0.0):
        cores[i] /= s[i]
        log_scales[i] = pivots[i] + math.log(s[i])
    return LinearSystem.from_scaled(log_scales, cores, sys.domain, sys.window)


def smallness_margin(sys: LinearSystem, proj: ProjectionFamily, rate: GrowthRate,
                     nu: NuSequence, beta: float, spec: PerturbationSpec) -> float:
    """Contraction estimate c * (sum gamma) * ||T|| * (1 + c * sum gamma).

    ||T|| is the solution-operator norm, the inverse of the difference
    operator; the trailing factor converts it to a graph-norm bound.  Below
    one, the perturbed difference operator stays invertible.  The system,
    rate and weights must live on the family's window: for a family from
    characterize, pass its result's restricted system, rate and nu.
    """
    if spec.c == 0.0:
        return 0.0
    t = operator_norm_sup(sys, proj, rate, nu, beta)[0]
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
    failure: str | None = None
    c: float = math.nan
    gamma_sum: float = math.nan
    beta: float = math.nan
    seed: int | None = None

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
            "drift": [f(x) for x in self.drift],
            "c": f(self.c),
            "gamma_sum": f(self.gamma_sum),
            "beta": f(self.beta),
            "seed": self.seed,
        }


def verify_persistence(sys: LinearSystem, b, rate: GrowthRate, nu: NuSequence,
                       spec: PerturbationSpec | None = None,
                       boundary_hint=None,
                       gap_threshold: float = GAP_THRESHOLD,
                       tail_horizon: int | None = None,
                       base: CharacterizeResult | None = None) -> PersistenceReport:
    """Characterize the system with and without the perturbation and compare.

    base, when given, is the unperturbed system already characterized with
    the same boundary_hint, gap_threshold and tail_horizon; a sweep computes
    it once and passes it to every point, and the result is the same as
    without it; a base from another window is a ConfigError.  The margin is
    taken on the base's restricted system and family, so it folds from the
    decay march of the base's certificate fit.

    A failure while characterizing the unperturbed system propagates: there
    is no baseline to compare against.  A failure on the perturbed system is
    the measured outcome and lands in the report, stage tag and all.
    """
    if base is None:
        base = characterize(sys, rate, nu, boundary_hint=boundary_hint,
                            gap_threshold=gap_threshold, tail_horizon=tail_horizon)
    elif base.splitting.original_window != sys.window:
        raise ConfigError("base was characterized on another window than the system's")
    sys_p = perturbed_system(sys, b)

    if spec is None:
        margin = c = gsum = beta = math.nan
        seed = None
    else:
        margin = smallness_margin(base.system, base.projections, base.rate,
                                  base.nu, spec.beta, spec)
        c = spec.c
        gsum = spec.gamma_sum
        beta = spec.beta
        seed = int(spec.seed)

    window = base.splitting.window
    try:
        pert: CharacterizeResult | None = characterize(
            sys_p, rate, nu, boundary_hint=boundary_hint,
            gap_threshold=gap_threshold, tail_horizon=tail_horizon)
    except AnalysisError as e:
        return PersistenceReport(
            window=window, margin=margin, verdict="not_persisted",
            base_certificate=base.certificate, pert_certificate=None,
            max_drift=math.nan, drift=np.zeros(0), failure=str(e),
            c=c, gamma_sum=gsum, beta=beta, seed=seed)

    if base.projections.stable_rank != pert.projections.stable_rank:
        drift = np.full(window[1] - window[0] + 1, math.pi / 2.0)
    else:
        drift = np.maximum(
            max_principal_angle(base.projections.ranges, pert.projections.ranges),
            max_principal_angle(base.projections.kernels, pert.projections.kernels))
    passed = pert.verify.passed
    verdict = "persisted" if passed else "not_persisted"
    failure = None if passed else "; ".join(pert.verify.failure_reasons)
    return PersistenceReport(
        window=window, margin=margin, verdict=verdict,
        base_certificate=base.certificate, pert_certificate=pert.certificate,
        max_drift=float(np.max(drift)) if drift.size else 0.0, drift=drift,
        failure=failure, c=c, gamma_sum=gsum, beta=beta, seed=seed)
