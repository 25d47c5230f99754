#!/usr/bin/env python3
"""Apply each known fault to a copy of the library and check a test catches it.

    python scripts/mutants.py [NAME ...]

``MUTANTS`` lists one fault per entry: the file under ``src/``, the exact
text it replaces (which occurs once in that file), the text it puts there,
and the test node ids that must fail with it.  For each mutant, all of them
or those named, the script copies ``src/`` into a temporary directory,
applies the replacement there, and runs the listed tests against the copy
with ``python -m pytest -x -q``.  A mutant is ``killed`` when they fail and
``survived`` when they pass.  The checkout itself is never written.  Exit
status 0 when every mutant run is killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARCH_TEST = "tests/test_dichotomy.py::test_side_march_on_the_reversed_window_matches_the_two_loop_march"


class Mutant(NamedTuple):
    name: str
    path: str        # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("neg-inf-scale-unguarded", "dicholab/dichotomy.py",
           "t[np.isneginf(t)] = 0.0", "t[np.isneginf(t)] = -np.inf",
           (f"{MARCH_TEST}[zero_step-2x1]",
            "tests/test_admissibility.py::test_operator_norm_zero_system")),
    Mutant("unstable-grid-at-plus-lam", "dicholab/dichotomy.py",
           "_slack_grid(sys, proj, rate, nu, -lam, False)",
           "_slack_grid(sys, proj, rate, nu, lam, False)",
           (f"{MARCH_TEST}[planted-1x1]",)),
    Mutant("grid-triangles-swapped", "dicholab/dichotomy.py",
           "where=keep if stable else keep.T", "where=keep.T if stable else keep",
           ("tests/test_dichotomy.py::test_worked_scalar_example_has_zero_slack",
            f"{MARCH_TEST}[planted-1x0]")),
    Mutant("cumulative-scale-one-step-late", "dicholab/dichotomy.py",
           "np.cumsum(np.concatenate(([0.0], t)))", "np.cumsum(np.concatenate((t, [0.0])))",
           (f"{MARCH_TEST}[planted-1x0]", f"{MARCH_TEST}[sheared-2x1]")),
    Mutant("jacobi-three-sweeps", "dicholab/linalg.py",
           "_JACOBI_SWEEPS = 4", "_JACOBI_SWEEPS = 3",
           ("tests/test_linalg.py::test_gram_norms_stay_within_eight_eps_of_the_svd[shape3]",)),
    Mutant("march-exponents-dropped", "dicholab/dichotomy.py",
           "exps[lo: j + 1] += pow2_scale(", "exps[lo: j + 1] += 0 * pow2_scale(",
           ("tests/test_dichotomy.py::test_march_sums_the_logs_of_steps_beyond_the_double_range",
            f"{MARCH_TEST}[chunk-3x2-twice]")),
    Mutant("chunk-carry-off-by-one", "dicholab/dichotomy.py",
           "buf[:, :, :k] = buf[:, :, b - k: b]", "buf[:, :, :k] = buf[:, :, b - k - 1: b - 1]",
           (f"{MARCH_TEST}[chunk-3x2-over]",)),
)


def apply(mutant, src):
    """Replace the mutant's text in its file under ``src``; refuse unless
    the old text occurs exactly once."""
    path = os.path.join(src, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def killed(mutant) -> bool:
    """Whether the mutant's tests fail on a mutated copy of ``src/``; a run
    that does not get as far as a verdict (a node id that no longer
    collects, say) raises with pytest's output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *mutant.tests], cwd=ROOT, env=env, capture_output=True)
    if run.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exit {run.returncode}\n"
                           + run.stdout.decode() + run.stderr.decode())
    return run.returncode == 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutants: {sorted(unknown)}")
    status = 0
    for m in MUTANTS:
        if args.names and m.name not in args.names:
            continue
        ok = killed(m)
        status |= not ok
        print(f"{m.name}: {'killed' if ok else 'survived'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
