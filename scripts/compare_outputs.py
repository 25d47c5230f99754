#!/usr/bin/env python3
"""Run the benchmark's operations into a directory, or compare two such runs.

    python scripts/compare_outputs.py run OUT_DIR --seed 1 [--corpus N] [--src PATH]
    python scripts/compare_outputs.py diff PARENT_DIR CHANGE_DIR

``run`` imports ``dicholab`` from ``--src`` (default: ``src/`` of this
checkout), so one copy of this script can run an older checkout too.  It
calls ``cli.run`` once on every operation of ``bench/workloads.py`` at the
seed, writing each one's reports to ``OUT_DIR/<workload>/<op>/`` and every
exit code to ``OUT_DIR/exit_codes.json``; an operation that raises records
the exception's type name instead.  ``--corpus N`` adds N draws from each
config strategy of ``tests/test_cli.py`` (``CORPUS``), derandomized and
blind to the library's literals, so every run of this script draws the same
configs whatever ``--src``.  Draw i of strategy s has its config at
``OUT_DIR/corpus/<s>/<i>.json`` and goes through ``cli.main`` into
``OUT_DIR/corpus/<s>/<i>/``, keyed ``corpus/<s>/<i>``.

``diff`` prints, per operation, the two exit codes and whether each file
has the same sha256 (as ``bench/checks.fingerprint`` hashes them, so
``run_meta.json``, which holds wall times, aside).  For
a file that differs it prints, per numeric JSON field (list indices folded
to ``[]``) and per CSV column, the largest |parent - change| and beside it
the largest relative move |parent - change| / max(|parent|, |change|); a
field that differs in anything but a number (a verdict, a key, a row count)
reads ``differs``.  Exit status 0 when every exit code and file agree, else 1.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXIT_CODES = "exit_codes.json"
sys.path.append(os.path.join(ROOT, "bench"))
from checks import fingerprint  # noqa: E402
#: the entry of a field whose values differ in anything but a number
DIFFERS = "differs"
#: the (absolute, relative) move of equal values
SAME = (0.0, 0.0)
#: the config strategies of tests/test_cli.py that --corpus draws from
CORPUS = ("persistence_configs", "analysis_configs", "admissibility_configs")


def run_ops(out_dir, seed):
    """Every benchmark operation at ``seed`` into ``out_dir``; returns the
    exit codes keyed ``workload/op``."""
    import dicholab.cli as cli
    from workloads import WORKLOADS

    codes = {}
    for workload, make in WORKLOADS.items():
        for op in make(seed):
            key = f"{workload}/{op.name}"
            try:
                codes[key] = cli.run(copy.deepcopy(op.cfg), os.path.join(out_dir, key), op.threads)
            except Exception as e:  # the known failing operation raises
                codes[key] = type(e).__name__
    return codes


def draw_corpus(n):
    """N derandomized configs from each strategy of ``CORPUS``, by name.

    Hypothesis mixes into its draws the literals it mines from every loaded
    module outside the tests, the library included, so one changed literal
    in ``--src`` would change the configs.  The draws are made with that
    pool emptied and follow the strategies alone."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis.internal.conjecture import providers

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import test_cli

    mined = providers._get_local_constants
    providers._get_local_constants = providers.Constants
    providers.CONSTANTS_CACHE.cache.clear()
    drawn = {}
    try:
        for name in CORPUS:
            cfgs = drawn[name] = []

            @settings(max_examples=n, derandomize=True, database=None, deadline=None,
                      phases=[Phase.generate], suppress_health_check=list(HealthCheck))
            @given(cfg=getattr(test_cli, name)())
            def collect(cfg):
                cfgs.append(cfg)

            collect()
    finally:
        providers._get_local_constants = mined
        providers.CONSTANTS_CACHE.cache.clear()
    return drawn


def run_corpus(out_dir, n):
    """``draw_corpus(n)`` through ``cli.main`` into ``out_dir/corpus``;
    returns the exit codes keyed ``corpus/<strategy>/<i>``."""
    import dicholab.cli as cli

    codes = {}
    for name, cfgs in draw_corpus(n).items():
        os.makedirs(os.path.join(out_dir, "corpus", name), exist_ok=True)
        for i, cfg in enumerate(cfgs):
            key = f"corpus/{name}/{i:03d}"
            path = os.path.join(out_dir, key + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            try:
                codes[key] = cli.main(["--config", path, "--out-dir", os.path.join(out_dir, key)])
            except Exception as e:
                codes[key] = type(e).__name__
    return codes


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _gap(a, b):
    """(|a - b|, |a - b| / max(|a|, |b|)) for two numbers: zeros for equal
    ones (infinities and NaNs included), infinities where only one side is
    finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return SAME
    if not (math.isfinite(a) and math.isfinite(b)):
        return (math.inf, math.inf)
    return (abs(a - b), abs(a - b) / max(abs(a), abs(b)))


def _record(out, key, gap):
    if out.get(key) != DIFFERS:
        out[key] = gap if gap == DIFFERS else tuple(map(max, out.get(key, SAME), gap))


def _json_gaps(a, b, path, out):
    if _number(a) and _number(b):
        _record(out, path, _gap(float(a), float(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in a and k in b:
                _json_gaps(a[k], b[k], f"{path}.{k}" if path else k, out)
            else:
                _record(out, f"{path}.{k}" if path else k, DIFFERS)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            _record(out, path + "[]", DIFFERS)
        for x, y in zip(a, b):
            _json_gaps(x, y, path + "[]", out)
    else:
        _record(out, path, SAME if a == b else DIFFERS)


def _csv_gaps(path_a, path_b, out):
    with open(path_a, newline="", encoding="utf-8") as fa, \
            open(path_b, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = csv.reader(fa), csv.reader(fb)
        header = next(rows_a, None)
        if header is None or header != next(rows_b, None):
            out["header"] = DIFFERS
            return
        for ra, rb in itertools.zip_longest(rows_a, rows_b):
            if ra is None or rb is None:
                out["rows"] = DIFFERS
                return
            for name, x, y in zip(header, ra, rb):
                if x == y:
                    _record(out, name, SAME)
                    continue
                try:
                    _record(out, name, _gap(float(x), float(y)))
                except ValueError:
                    _record(out, name, DIFFERS)


def file_gaps(path_a, path_b):
    """Largest (absolute, relative) move per numeric field of two report
    files (JSON or CSV)."""
    out = {}
    if path_a.endswith(".csv"):
        _csv_gaps(path_a, path_b, out)
    else:
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            _json_gaps(json.load(fa), json.load(fb), "", out)
    return {k: v for k, v in out.items() if v != SAME}


def compare(dir_a, dir_b):
    """Per operation: both exit codes, and for each file whether its sha256
    agrees and, where not, its ``file_gaps``; a file on one side only maps
    to None."""
    codes = []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, EXIT_CODES), encoding="utf-8") as fh:
            codes.append(json.load(fh))
    result = {}
    for key in sorted(set(codes[0]) | set(codes[1])):
        ha, hb = (fingerprint(os.path.join(d, key)) if os.path.isdir(os.path.join(d, key))
                  else {} for d in (dir_a, dir_b))
        files = {}
        for name in sorted(set(ha) | set(hb)):
            if name not in ha or name not in hb:
                files[name] = None
            elif ha[name] == hb[name]:
                files[name] = {"identical": True}
            else:
                files[name] = {"identical": False, "gaps": file_gaps(
                    *(os.path.join(d, key, name) for d in (dir_a, dir_b)))}
        result[key] = {"exit": (codes[0].get(key), codes[1].get(key)), "files": files}
    return result


def same(result):
    return all(r["exit"][0] == r["exit"][1]
               and all(f is not None and f["identical"] for f in r["files"].values())
               for r in result.values())


def report(result):
    lines = []
    for key, r in result.items():
        files = r["files"]
        n_same = sum(1 for f in files.values() if f is not None and f["identical"])
        lines.append(f"{key}: exit {r['exit'][0]} -> {r['exit'][1]}; "
                     f"{n_same}/{len(files)} files identical")
        for name, f in files.items():
            if f is None:
                lines.append(f"  {name}: on one side only")
            elif not f["identical"]:
                lines.append(f"  {name}: differs")
                gaps = sorted(f["gaps"].items(),
                              key=lambda kv: -math.inf if kv[1] == DIFFERS else -kv[1][0])
                lines += [f"    {field}: " + (gap if gap == DIFFERS
                                              else f"{gap[0]:.3g} (rel {gap[1]:.3g})")
                          for field, gap in gaps]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every benchmark operation into OUT_DIR")
    r.add_argument("out_dir")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--corpus", type=int, default=0, metavar="N",
                   help="also run N draws from each config strategy of tests/test_cli.py")
    r.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the dicholab package to run")
    d = sub.add_parser("diff", help="compare two run directories")
    d.add_argument("parent_dir")
    d.add_argument("change_dir")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        # the benchmark pins BLAS to one thread; so does this, before numpy loads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path.insert(0, os.path.abspath(args.src))
        codes = run_ops(args.out_dir, args.seed)
        if args.corpus:
            codes.update(run_corpus(args.out_dir, args.corpus))
        with open(os.path.join(args.out_dir, EXIT_CODES), "w", encoding="utf-8") as fh:
            json.dump(codes, fh, indent=1, sort_keys=True)
        print(json.dumps(codes, indent=1, sort_keys=True))
        return 0
    result = compare(args.parent_dir, args.change_dir)
    print(report(result))
    return 0 if same(result) else 1


if __name__ == "__main__":
    sys.exit(main())
