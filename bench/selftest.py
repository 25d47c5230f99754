#!/usr/bin/env python3
"""Show that the benchmark's checks can fail.

    python3 bench/selftest.py

Runs one pass of every workload (seed 0), confirms that the clean outputs
pass their checks, then feeds the checks deliberately corrupted copies and
expects each one to be refused: a slack off by 1e-6, one solution entry
perturbed, one margin scaled, one CSV row dropped (on every workload) and
a certificate constant shrunk.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def slack_off(d):
    def edit(lines):
        k = len(lines) // 3
        m, n, side, v = lines[k].split(",")
        lines[k] = ",".join((m, n, side, repr(float(v) + 1e-6)))
    _edit_lines(os.path.join(d, "slack_table.csv"), edit)


def solution_perturbed(d):
    def edit(doc):
        vals = doc["results"]["admissibility"][0]["report"]["solution"][5]["values"]
        vals[0] += 1e-6 * max(1.0, abs(vals[0]))
    _edit_json(os.path.join(d, "report.json"), edit)


def margin_scaled(d):
    def edit(doc):
        doc["results"]["sweep"]["rows"][1]["margin"] *= 1.01
    _edit_json(os.path.join(d, "report.json"), edit)


def certificate_shrunk(d):
    def edit(doc):
        doc["results"]["certificate"]["D"] *= 0.9
    _edit_json(os.path.join(d, "report.json"), edit)


def row_dropped(d):
    name = next(n for n in sorted(os.listdir(d)) if n.endswith(".csv"))
    _edit_lines(os.path.join(d, name), lambda lines: lines.pop())


#: workload -> [(label, corruption of the first op's outputs)]
CORRUPTIONS = {
    "certify-long": [("certificate D scaled by 0.9", certificate_shrunk),
                     ("CSV row dropped", row_dropped)],
    "verify-emit": [("slack off by 1e-6", slack_off), ("CSV row dropped", row_dropped)],
    "solve-oracle": [("solution entry perturbed", solution_perturbed),
                     ("CSV row dropped", row_dropped)],
    "persist-sweep": [("margin scaled by 1.01", margin_scaled),
                      ("CSV row dropped", row_dropped)],
}


def main():
    cli = run.load_program()
    import checks

    missed = 0
    for workload, corruptions in CORRUPTIONS.items():
        ops = WORKLOADS[workload](0)
        runner = run.Runner(cli, f"selftest-{workload}", ops)
        try:
            first = runner.run_pass()
            runner.check_pass(first, timed=False)
            if not runner.correct:
                print(f"{workload}: clean outputs fail their checks")
                missed += 1
                continue
            op, exp, clean, (rc, _) = ops[0], runner.expect[0], runner.dirs[0], first.outcomes[0]
            for label, corrupt in corruptions:
                bad = clean + ".corrupt"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(clean, bad)
                corrupt(bad)
                try:
                    checks.check(op, exp, bad, rc)
                    verdict = "MISSED"
                    missed += 1
                except checks.CheckError as e:
                    verdict = f"refused ({e})"
                if checks.fingerprint(bad) == runner.reference[0]:
                    verdict += "; fingerprint unchanged"
                    missed += 1
                print(f"{workload} / {label}: {verdict}")
        finally:
            shutil.rmtree(runner.root, ignore_errors=True)
    if os.path.isdir(run.OUT) and not os.listdir(run.OUT):
        os.rmdir(run.OUT)
    print("self-test:", "FAIL" if missed else "PASS")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
