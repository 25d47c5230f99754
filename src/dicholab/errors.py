"""Exception taxonomy.

ConfigError maps to CLI exit code 1, AnalysisError (and subclasses) to
exit code 2.  Everything else is a plain bug.
"""


class DicholabError(Exception):
    pass


class ConfigError(DicholabError):
    """Bad user input: malformed config, inconsistent window, wrong shapes."""


class AnalysisError(DicholabError):
    """The computation ran but the data does not support the requested conclusion."""


class NoGapError(AnalysisError):
    """Exponent classification found no reliable gap at the requested cutoff."""


class KernelSingularError(AnalysisError):
    """A coefficient matrix is not invertible on the complementary subspace."""


class SplittingDegenerateError(AnalysisError):
    """Candidate stable/unstable bases do not span, or are too ill-conditioned."""


class FitError(AnalysisError):
    """Certificate fitting failed (non-positive decay slope, or not enough data)."""


class OracleMismatchError(AnalysisError):
    """Green-formula solution and dense boundary-value solve disagree."""


class RepresentabilityError(AnalysisError, OverflowError):
    """A raw-domain quantity at a named index does not fit in a double."""
