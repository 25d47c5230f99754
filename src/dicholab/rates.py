"""Growth rates, nonuniformity weights and weighted sequence norms.

A growth rate is a strictly increasing positive sequence mu_n kept in the
log domain: the doubly exponential rate mu_n = exp(exp(n)) overflows a
double already at n = 7, so no operation in this package ever exponentiates
log mu without pairing it with a compensating term first.

Built-in rates (natural logs):

    exponential          log mu_n = n
    polynomial           log mu_n = log(1+n), extended by -log(1-n) for n < 0
    logarithmic          log mu_n = log(log(2+n)),  one-sided only
    doubly_exponential   log mu_n = exp(n)
    table                user supplied log values

Weights nu_n >= 1 measure nonuniformity.  The ``power`` kind is
nu_n = max(1, mu_n**epsilon); the clamp keeps nu >= 1 on indices where
mu_n < 1 (two-sided left tails, small logarithmic rates) and is invisible
wherever mu_n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigError
from .linalg import exp_or_inf, logsumexp, row_norms

DOMAINS = ("one_sided", "two_sided")

#: cap on window length; long raw products are exactly the regime where
#: double precision quietly loses all structure
MAX_WINDOW = 512


def check_window(window, domain):
    """(n_min, n_max) of a valid window for the domain, else ConfigError."""
    n_min, n_max = int(window[0]), int(window[1])
    if n_max <= n_min:
        raise ConfigError("window must contain at least two indices")
    if domain not in DOMAINS:
        raise ConfigError(f"unknown domain {domain!r}")
    if domain == "one_sided" and n_min != 0:
        raise ConfigError("one-sided windows start at 0")
    if n_max - n_min > MAX_WINDOW:
        raise ConfigError(f"window length {n_max - n_min} exceeds cap {MAX_WINDOW}")
    return n_min, n_max


def check_aligned(ref, *objects):
    """ConfigError unless every object (None skipped) lives on the window of
    ``ref`` and, where both have one, has its dimension; the message names the
    first object that is off and both windows or dimensions."""
    for obj in objects:
        if obj is None:
            continue
        if obj.window != ref.window:
            raise ConfigError(f"{type(obj).__name__} window {obj.window} differs "
                              f"from {type(ref).__name__} window {ref.window}")
        dims = getattr(ref, "dim", None), getattr(obj, "dim", None)
        if None not in dims and dims[0] != dims[1]:
            raise ConfigError(f"{type(obj).__name__} dimension {dims[1]} differs "
                              f"from {type(ref).__name__} dimension {dims[0]}")


def window_index(window, n: int) -> int:
    """Position of index n in the window, else ConfigError."""
    if n < window[0] or n > window[1]:
        raise ConfigError(f"index {n} outside window {window}")
    return n - window[0]


def sub_window(window, domain, n_lo, n_hi):
    """(i0, i1, domain) of the sub-window [n_lo, n_hi]: slice bounds of its
    indices, and the domain, one-sided only while the left end stays."""
    if n_lo < window[0] or n_hi > window[1] or n_hi - n_lo < 1:
        raise ConfigError("invalid sub-window")
    if domain == "one_sided" and n_lo != 0:
        domain = "two_sided"
    return n_lo - window[0], n_hi - window[0] + 1, domain


@dataclass(frozen=True)
class GrowthRate:
    """Strictly increasing rate on an integer window, stored as log mu."""

    kind: str
    domain: str
    window: tuple[int, int]
    log_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.log_values, dtype=float)
        if vals.ndim != 1 or vals.size != self.window[1] - self.window[0] + 1:
            raise ConfigError("log_values must align with the window")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("log mu must be finite on the window")
        if not np.all(np.diff(vals) > 0):
            raise ConfigError("log mu must be strictly increasing")
        object.__setattr__(self, "log_values", vals)

    def log_at(self, n: int) -> float:
        return float(self.log_values[window_index(self.window, n)])

    def restrict(self, n_lo: int, n_hi: int) -> "GrowthRate":
        """Sub-window [n_lo, n_hi]; keeps the domain unless the left end moves."""
        i0, i1, domain = sub_window(self.window, self.domain, n_lo, n_hi)
        return GrowthRate(kind=self.kind, domain=domain, window=(n_lo, n_hi),
                          log_values=self.log_values[i0:i1].copy())


def make_rate(kind, domain, window, table=None) -> GrowthRate:
    """Construct a growth rate on ``window = (n_min, n_max)`` inclusive."""
    n_min, n_max = check_window(window, domain)
    n = np.arange(n_min, n_max + 1, dtype=float)
    if kind == "exponential":
        vals = n.copy()
    elif kind == "polynomial":
        # two-sided extension: mu_n = 1+n for n >= 0 and 1/(1-n) for n < 0
        vals = np.where(n >= 0, np.log1p(np.maximum(n, 0)), -np.log1p(-np.minimum(n, 0)))
    elif kind == "logarithmic":
        if n_min < 0:
            raise ConfigError("logarithmic rate is defined on nonnegative indices only")
        vals = np.log(np.log(2.0 + n))
    elif kind == "doubly_exponential":
        vals = np.exp(n)
    elif kind == "table":
        if table is None:
            raise ConfigError("table rate needs explicit log values")
        vals = np.asarray(table, dtype=float)
    else:
        raise ConfigError(f"unknown rate kind {kind!r}")
    return GrowthRate(kind=kind, domain=domain, window=(n_min, n_max), log_values=vals)


def compute_n0(rate: GrowthRate) -> int:
    """Least window index with mu_n >= 1 (two-sided rates only).

    This is the index where the absolute-value weighted spaces switch the
    sign of the exponent.  The left end of the window must still lie below 1,
    the finite-window stand-in for mu_n -> 0 as n -> -infinity.
    """
    if rate.domain != "two_sided":
        raise ConfigError("n0 is only meaningful for two-sided rates")
    vals = rate.log_values
    if vals[0] >= 0 or vals[-1] < 0:
        raise AnalysisError("rate never crosses 1 on the window")
    return int(rate.window[0] + int(np.argmax(vals >= 0)))


@dataclass(frozen=True)
class NuSequence:
    """Nonuniformity weights nu_n >= 1, stored as log nu."""

    kind: str
    window: tuple[int, int]
    log_values: np.ndarray = field(repr=False)
    c: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.log_values, dtype=float)
        if vals.ndim != 1 or vals.size != self.window[1] - self.window[0] + 1:
            raise ConfigError("log_values must align with the window")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("log nu must be finite")
        if np.any(vals < 0):
            raise ConfigError("nu must be >= 1 everywhere")
        object.__setattr__(self, "log_values", vals)

    def log_at(self, n: int) -> float:
        return float(self.log_values[window_index(self.window, n)])

    def restrict(self, n_lo: int, n_hi: int) -> "NuSequence":
        """Sub-window [n_lo, n_hi] of the weights."""
        i0, i1, _ = sub_window(self.window, None, n_lo, n_hi)
        return NuSequence(kind=self.kind, window=(n_lo, n_hi),
                          log_values=self.log_values[i0:i1].copy(), c=self.c,
                          epsilon=self.epsilon)


def make_nu(kind, rate: GrowthRate, c=1.0, epsilon=0.0, table=None) -> NuSequence:
    if kind == "uniform":
        if c < 1.0:
            raise ConfigError("uniform nu needs c >= 1")
        vals = np.full(rate.log_values.shape, math.log(c))
        return NuSequence(kind=kind, window=rate.window, log_values=vals, c=float(c))
    if kind == "power":
        if epsilon < 0:
            raise ConfigError("power nu needs epsilon >= 0")
        vals = np.maximum(0.0, epsilon * rate.log_values)
        return NuSequence(kind=kind, window=rate.window, log_values=vals,
                          epsilon=float(epsilon))
    if kind == "table":
        if table is None:
            raise ConfigError("table nu needs explicit log values")
        vals = np.asarray(table, dtype=float)
        return NuSequence(kind=kind, window=rate.window, log_values=vals)
    raise ConfigError(f"unknown nu kind {kind!r}")


@dataclass(frozen=True)
class WeightedNormSpec:
    """Which weighted norm: exponent beta, p in {1, inf}, plain or abs variant.

    The abs variant uses |beta| with the sign flipped below ``compute_n0`` of
    the rate the norm is taken over, and is only defined over two-sided rates.
    """

    beta: float
    p: float = math.inf
    variant: str = "plain"

    def __post_init__(self):
        if self.p not in (1, math.inf):
            raise ConfigError("p must be 1 or inf")
        if self.variant not in ("plain", "abs"):
            raise ConfigError("variant must be 'plain' or 'abs'")


def make_abs_spec(rate: GrowthRate, beta, p=math.inf) -> WeightedNormSpec:
    """The abs-variant spec, refused (by ``compute_n0``) for a rate it has no
    sign switch on."""
    compute_n0(rate)
    return WeightedNormSpec(beta=float(beta), p=p, variant="abs")


def log_row_norms(x, rate: GrowthRate):
    """Log of each term's Euclidean norm, (W+1,) for a sequence x (W+1, d) on
    the rate's window and (k, W+1) for a (k, W+1, d) stack; no weight in them."""
    x = np.asarray(x, dtype=float)
    w = rate.window[1] - rate.window[0] + 1
    if x.ndim not in (2, 3) or x.shape[-2] != w:
        raise ConfigError("sequence must be a (window length, dim) array or a stack of them")
    with np.errstate(divide="ignore"):
        return np.log(row_norms(x))


def log_norm_of_rows(log_x, spec: WeightedNormSpec, rate: GrowthRate, nu: NuSequence | None = None):
    """log_norm of the sequence, or of each sequence of the stack, whose
    log_row_norms are log_x."""
    lm = rate.log_values
    if spec.variant == "plain":
        weight = spec.beta * lm
    else:
        b = abs(spec.beta)
        idx = np.arange(rate.window[0], rate.window[1] + 1)
        weight = np.where(idx < compute_n0(rate), b * lm, -b * lm)
    terms = weight + log_x
    if spec.p == 1:
        if nu is None:
            raise ConfigError("p=1 norms need the nu sequence")
        check_aligned(rate, nu)
        return logsumexp(terms + nu.log_values)
    top = np.max(terms, axis=-1, initial=-np.inf)
    return float(top) if top.ndim == 0 else top


def log_norm(x, spec: WeightedNormSpec, rate: GrowthRate, nu: NuSequence | None = None):
    """Natural log of the weighted norm; -inf for the zero sequence.  Of each
    sequence of a (k, W+1, d) stack, with the bits of one call per sequence."""
    return log_norm_of_rows(log_row_norms(x, rate), spec, rate, nu)


def norm(x, spec: WeightedNormSpec, rate: GrowthRate, nu: NuSequence | None = None):
    """Weighted norm of a sequence or each of a stack; +inf if it overflows."""
    return exp_or_inf(log_norm(x, spec, rate, nu))
