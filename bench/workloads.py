"""The four benchmark workloads: one list of scenario configs each.

Every config is a planted system, so the ground truth the checks compare
against is known by construction.  All configs of a workload share the
workload seed given on the command line; the planted frames, the solver
inputs and the perturbation directions all derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation: a single ``cli.run`` call on ``cfg``.

    ``expect_failure`` marks the one operation that raises out of
    ``cli.run`` on every input today; it is counted as failed, not checked.
    """

    name: str
    cfg: dict
    threads: int = 1
    expect_failure: bool = False


def _planted(kind, domain, window, dims, cond=1.0, nu=None, lam_s=1.0, lam_u=1.0):
    block = {
        "source": "planted",
        "rate": {"kind": kind, "domain": domain, "window": list(window)},
        "lambda_stable": lam_s,
        "lambda_unstable": lam_u,
        "dims": list(dims),
    }
    if cond != 1.0:
        block["cond"] = cond
    if nu is not None:
        block["nu"] = nu
    return block


def certify_long(seed):
    def op(name, system):
        return Op(name, {"scenario": "characterize", "seed": seed, "system": system})

    return [
        op("exp-512-2x1", _planted("exponential", "one_sided", (0, 512), (2, 1), cond=5.0)),
        op("poly-2s-256-1x1", _planted("polynomial", "two_sided", (-256, 256), (1, 1))),
        op("exp-256-3x3", _planted("exponential", "one_sided", (0, 256), (3, 3))),
        op("exp-2s-256-2x2-nu", _planted("exponential", "two_sided", (-256, 256), (2, 2),
                                         nu={"kind": "power", "epsilon": 0.1})),
    ]


def verify_emit(seed):
    return [
        Op("exp-512-2x1", {"scenario": "verify", "seed": seed,
                           "system": _planted("exponential", "one_sided", (0, 512),
                                              (2, 1), cond=5.0),
                           "projections": {"source": "planted"}}),
        # the worked example: exact log-linear steps, so every stable slack
        # must come out exactly 0.0
        Op("dexp-20-worked", {"scenario": "verify", "seed": seed,
                              "system": _planted("doubly_exponential", "one_sided", (0, 20),
                                                 (1, 0), lam_s=0.5, lam_u=0.5),
                              "projections": {"source": "planted"}}),
    ]


def solve_oracle(seed):
    def op(name, system, betas, probe=False, expect_failure=False):
        block = {"n_samples": 16}
        if probe:
            block["probe_uniqueness"] = True
        return Op(name, {"scenario": "admissibility", "seed": seed, "system": system,
                         "projections": {"source": "planted"}, "beta": betas,
                         "admissibility": block}, expect_failure=expect_failure)

    return [
        op("exp-128-2x1", _planted("exponential", "one_sided", (0, 128), (2, 1)),
           [-0.5, 0.0, 0.25, 0.5]),
        op("poly-2s-64-3x3", _planted("polynomial", "two_sided", (-64, 64), (3, 3)),
           [-0.5, 0.0, 0.5]),
        op("log-128-1x1", _planted("logarithmic", "one_sided", (0, 128), (1, 1)),
           [0.0, 0.5], probe=True),
        # raw A_7 overflows a double; solve_admissibility raises OverflowError
        # out of cli.run instead of reporting (a known fault, kept so that
        # its fix shows as a change in the failed count)
        op("dexp-9-1x1-overflow", _planted("doubly_exponential", "one_sided", (0, 9), (1, 1)),
           [0.1], expect_failure=True),
    ]


def persist_sweep(seed):
    # the amplitudes put this system's smallness margins on both sides of 1
    system = _planted("exponential", "one_sided", (0, 160), (2, 1), cond=3.0)
    return [
        Op("c-sweep", {"scenario": "sweep", "seed": seed, "system": system,
                       "sweep": {"axis": "c", "values": [0.05, 0.2, 0.5, 1.0]}}, threads=2),
        Op("seed-sweep", {"scenario": "sweep", "seed": seed, "system": system,
                          "perturb": {"c": 0.1},
                          "sweep": {"axis": "seed", "values": [2 * seed + 1, 2 * seed + 2]}},
           threads=2),
        Op("perturb-2s", {"scenario": "perturb", "seed": seed,
                          "system": _planted("exponential", "two_sided", (-80, 80), (1, 1),
                                             cond=2.0),
                          "perturb": {"c": 0.1}}, threads=2),
    ]


WORKLOADS = {
    "certify-long": certify_long,
    "verify-emit": verify_emit,
    "solve-oracle": solve_oracle,
    "persist-sweep": persist_sweep,
}
