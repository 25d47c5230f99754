#!/usr/bin/env python3
"""Apply each known fault to a copy of the library and check a test catches it.

    python scripts/mutants.py [NAME ...]

``MUTANTS`` lists one fault per entry: the file under ``src/``, the exact
text it replaces (which occurs once in that file), the text it puts there,
and the test node ids that must fail with it.  For each mutant, all of them
or those named, the script copies ``src/`` into a temporary directory,
applies the replacement there, and runs the listed tests against the copy
with ``python -m pytest -x -q`` under the ``mutants`` Hypothesis profile of
``tests/conftest.py`` (no example database, no shrinking) and with
Hypothesis's storage in the temporary directory.  A mutant is ``killed``
when they fail and ``survived`` when they pass.  The checkout itself is
never written.  Exit status 0 when every mutant run is killed.
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
JSON_ORACLE_TEST = "tests/test_cli.py::test_json_writer_matches_the_sanitize_and_dumps_oracle"
REPORT_TEST = "tests/test_cli.py::test_report_files_are_the_oracles_bytes_and_a_json_fixed_point"
LAPACK_TEST = "tests/test_linalg.py::test_single_matrix_gufuncs_equal_scipys_raw_lapack"
MOMENT_TEST = "tests/test_dichotomy.py::test_moment_slope_matches_the_regression_on_the_gathered_cells"
GREEN_ORACLE_TEST = "tests/test_splitting.py::test_characterize_projections_are_the_oracles_green_diagonal"
PLANTED_HINT_TEST = "tests/test_splitting.py::test_recovered_projections_match_planted_with_hint"
FORWARD_LOOP_TEST = "tests/test_splitting.py::test_forward_frames_match_the_per_step_qr_loop"
REDUCE_LOOP_TEST = "tests/test_splitting.py::test_reduce_frame_matches_the_per_step_qr_loop"
SCAN_TEST = "tests/test_admissibility.py::test_scan_equals_the_sequential_point_per_beta"
CSV_TEST = "tests/test_cli.py::test_table_writer_matches_row_formatter"
README_TEST = "tests/test_docs.py::test_every_readme_command_runs_and_writes_the_files_it_names"


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
    Mutant("json-non-finite-as-nan", "dicholab/cli.py",
           'if math.isfinite(x) else "null"', 'if math.isfinite(x) else "NaN"',
           (JSON_ORACLE_TEST, f"{REPORT_TEST}[sweep]")),
    Mutant("json-keys-unsorted", "dicholab/cli.py",
           "sorted({str(k): v", "list({str(k): v",
           (JSON_ORACLE_TEST, f"{REPORT_TEST}[characterize]")),
    Mutant("json-strings-not-ascii", "dicholab/cli.py",
           "from json.encoder import encode_basestring_ascii",
           "from json.encoder import encode_basestring as encode_basestring_ascii",
           (JSON_ORACLE_TEST,)),
    Mutant("qr-factors-the-callers-array", "dicholab/linalg.py",
           "h = np.array(a, dtype=float)", "h = np.asarray(a, dtype=float)",
           (f"{LAPACK_TEST}[3]",)),
    Mutant("svd-without-errstate", "dicholab/linalg.py",
           'np.errstate(invalid="raise")', "np.errstate()",
           ("tests/test_linalg.py::test_single_matrix_svd_refuses_a_nan_entry_as_numpy_does"
            "[spectral_norm]",
            "tests/test_linalg.py::test_single_matrix_svd_failure_names_the_gufunc")),
    Mutant("scipy-imported-at-top", "dicholab/admissibility.py",
           "import warnings\n", "import warnings\n\nimport scipy.sparse\n",
           ("tests/test_cli.py::test_scipy_is_loaded_only_by_the_admissibility_oracle",)),
    Mutant("lam-fit-log-mu-uncentred", "dicholab/dichotomy.py",
           "np.ones(a), lm - lm.mean(), cum - cum.mean()", "np.ones(a), lm, cum - cum.mean()",
           (f"{MOMENT_TEST}[offset_rate]",)),
    Mutant("lam-fit-unstable-x-sign-flipped", "dicholab/dichotomy.py",
           "float(sxy / sxx if stable else -sxy / sxx)", "float(sxy / sxx)",
           (f"{MOMENT_TEST}[one_sided_2x1]",)),
    Mutant("lam-fit-mask-keeps-nan", "dicholab/dichotomy.py",
           "cells = np.isfinite(sums, where=", "cells = np.logical_not(np.isinf(sums), where=",
           (f"{MOMENT_TEST}[singular_step]",
            "tests/test_dichotomy.py::test_moment_slope_on_holes_and_degenerate_sides")),
    Mutant("sup-keeps-unstable-diagonal", "dicholab/dichotomy.py",
           "u_grid[np.arange(a), np.arange(a)] = np.nan",
           "u_grid[np.arange(a), np.arange(a)] += 0.0",
           ("tests/test_splitting.py::test_green_supremum_matches_the_gather_form[dims3]",)),
    Mutant("complement-chained-with-M", "dicholab/splitting.py",
           "steps[::-1].transpose(0, 2, 1)", "steps[::-1]",
           (GREEN_ORACLE_TEST, PLANTED_HINT_TEST)),
    Mutant("complement-window-not-reversed", "dicholab/splitting.py",
           "steps[::-1].transpose(0, 2, 1)", "steps.transpose(0, 2, 1)",
           (GREEN_ORACLE_TEST, PLANTED_HINT_TEST)),
    # the annihilator at n chained through the step at n + 1
    Mutant("complement-anchored-one-index-off", "dicholab/splitting.py",
           "steps = sys.mats[i_b:i_b + a - 1]", "steps = sys.mats[i_b + 1:i_b + a]",
           (GREEN_ORACLE_TEST, PLANTED_HINT_TEST)),
    # the unstable chain's rank test on the annihilator's slot of the stack
    Mutant("forward-rank-test-reads-annihilator-pivots", "dicholab/splitting.py",
           "_check_rank, rs[:, 1], n_b", "_check_rank, rs[:, 0], n_b",
           ("tests/test_splitting.py::test_characterize_refuses_an_unstable_hint_that_loses_rank",)),
    Mutant("frame-signs-dropped-in-loop", "dicholab/splitting.py",
           "q *= _pivot_signs(f)[..., None, :]", "q *= 1.0",
           (FORWARD_LOOP_TEST, REDUCE_LOOP_TEST)),
    Mutant("zero-pivot-flips-its-column", "dicholab/linalg.py",
           "s[s == 0] = 1.0", "s[s == 0] = -1.0",
           (f"{LAPACK_TEST}[3]",
            "tests/test_linalg.py::test_qr_signs_a_zero_pivot_plus_and_a_nan_pivot_nan")),
    # a seed sweep reuses its first seed's directions
    Mutant("perturb-directions-not-keyed-by-seed", "dicholab/cli.py",
           "rho, key = perturbation_radii(rate, nu, spec), spec.seed",
           "rho, key = perturbation_radii(rate, nu, spec), None",
           ("tests/test_cli.py::test_sweep_draws_each_seeds_directions_once[seed]",
            "tests/test_cli.py::test_each_sweep_row_is_a_standalone_perturb[seed]")),
    Mutant("principal-angles-unchecked", "dicholab/linalg.py",
           'check_orthonormal(a, "first basis")\n    check_orthonormal(b, "second basis")\n',
           "",
           ("tests/test_linalg.py::test_principal_angles_refuse_bases_that_are_not_orthonormal",)),
    Mutant("perturbed-system-np-exp", "dicholab/robustness.py",
           "math.exp(x - p)", "np.exp(x - p)",
           ("tests/test_robustness.py::test_perturbed_system_is_the_per_step_loop_byte_for_byte",)),
    Mutant("scan-beta-reads-previous-samples", "dicholab/admissibility.py",
           "lbs.append(x[:, cols])", "lbs.append(x[:, plans[j - 1][4]])",
           (SCAN_TEST,)),
    Mutant("scan-top-impulse-left-out-of-bound", "dicholab/admissibility.py",
           "lbs.append(vt[:1] @ units / scale)", "pass",
           (SCAN_TEST, "tests/test_admissibility.py::test_operator_norm_impulse_attains_sup")),
    # the top response of the unit impulse combination, not of its unit-norm scaling
    Mutant("scan-top-response-not-rescaled", "dicholab/admissibility.py",
           "lbs.append(vt[:1] @ units / scale)", "lbs.append(vt[:1] @ units)",
           (SCAN_TEST,)),
    Mutant("scan-finite-check-over-whole-stack", "dicholab/admissibility.py",
           "_check_finite(n0, *lbs)", "_check_finite(n0, x, *lbs)",
           (SCAN_TEST, "tests/test_admissibility.py::test_scan_pins_hold_their_failures")),
    # each weight's solve checked against the oracle column of the weight before
    Mutant("scan-oracle-column-of-previous-beta", "dicholab/admissibility.py",
           "xo = oracle[j] if", "xo = oracle[j - 1] if",
           (SCAN_TEST,)),
    # the draws scaled to unit norm, and the solve's input norm, at the first weight
    Mutant("scan-input-norms-at-first-beta", "dicholab/admissibility.py",
           "log_draws]),\n                                             "
           "WeightedNormSpec(beta=float(beta), p=1)",
           "log_draws]),\n                                             "
           "WeightedNormSpec(beta=float(betas[0]), p=1)",
           (SCAN_TEST,)),
    Mutant("scan-sup-misses-last-column", "dicholab/admissibility.py",
           "lb = max(sups, default=0.0)", "lb = max(sups[:-1], default=0.0)",
           (SCAN_TEST,)),
    # the unstable march on the reversed window: the column that starts just
    # past a singular step cut with the ones that cross it (keeping a column
    # that crosses it instead changes nothing: that step's inverse is NaN),
    # the steps or the starts in window order
    Mutant("march-live-off-by-one", "dicholab/dichotomy.py",
           "np.maximum.accumulate(np.arange(1, w + 1) * cut)",
           "np.maximum.accumulate(np.arange(2, w + 2) * cut)",
           (f"{MARCH_TEST}[singular-2x1]", f"{MARCH_TEST}[zero_step-2x1]")),
    Mutant("march-steps-not-reversed", "dicholab/dichotomy.py",
           "steps.inverses[::-1],", "steps.inverses,",
           (f"{MARCH_TEST}[sheared-2x1]", f"{MARCH_TEST}[singular-1x2]")),
    Mutant("march-start-not-reversed", "dicholab/dichotomy.py",
           "np.ascontiguousarray(start[::-1].T)", "np.ascontiguousarray(start.T)",
           (f"{MARCH_TEST}[sheared-2x1]", f"{MARCH_TEST}[sheared-1x2]")),
    Mutant("csv-floats-at-16-digits", "dicholab/cli.py",
           '_CONVERSIONS = {"f": "%.17g"', '_CONVERSIONS = {"f": "%.16g"',
           (f"{CSV_TEST}[special]", f"{CSV_TEST}[multi-chunk]")),
    Mutant("csv-partial-block-dropped", "dicholab/cli.py",
           "range(0, len(cols[0]), CSV_CHUNK_ROWS)",
           "range(0, len(cols[0]) - len(cols[0]) % CSV_CHUNK_ROWS, CSV_CHUNK_ROWS)",
           ("tests/test_cli.py::test_table_writer_streams_in_chunks", f"{CSV_TEST}[multi-chunk]")),
    Mutant("slack-table-stable-grid-transposed", "dicholab/dichotomy.py",
           '(("stable", self.slack_stable),', '(("stable", self.slack_stable.T),',
           ("tests/test_dichotomy.py::test_verify_to_json_and_rows",)),
    # the option every README command passes, renamed
    Mutant("cli-out-dir-renamed", "dicholab/cli.py",
           'parser.add_argument("--out-dir"', 'parser.add_argument("--output-dir"',
           (README_TEST,)),
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
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=os.path.join(tmp, ".hypothesis"))
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "--hypothesis-profile=mutants", *mutant.tests],
                             cwd=ROOT, env=env, capture_output=True)
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
