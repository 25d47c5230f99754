#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, summarized.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs K \\
        [--seed S] [--seconds T] [--out BENCH_<n>.json] [--change-note TEXT] [--note TEXT]

PARENT and CHANGE are checkouts of this repository.  Pair i runs
``python3 bench/run.py --workload W --seed S --seconds T`` once in each,
one after the other; the parent runs first in even pairs and the change in
odd ones, so a drift of the machine's speed falls on both sides alike.  The
last line of each run's standard output is its JSON record.

``--out`` is written in the schema of the committed ``BENCH_<n>.json``
files: the command, the two sides, the machine, the first pair's two
records under ``runs`` and, under ``summary["<W> seed <S>"]``, per
end-to-end metric the median and quartiles of each side and the number of
pairs in which the change is better.  An existing file keeps its other
workloads, so one file gathers several invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_command(workload, seed, seconds):
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]


def last_json_line(stdout):
    """The record a bench run prints as its last line of output."""
    return json.loads(stdout.strip().splitlines()[-1])


def side_order(i):
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(xs):
    """First and third quartiles, by linear interpolation between order
    statistics (numpy's default percentile)."""
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, better):
    """Summary of ``pairs``, a list of {"parent": record, "change": record},
    for the metrics named in ``better`` ("lower" or "higher" each)."""
    out = {
        "pairs": len(pairs),
        "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed": sum(p[s]["failed"] for p in pairs for s in SIDES),
    }
    for name, way in better.items():
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        if way == "lower":
            wins = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        else:
            wins = sum(c > p for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {
            "parent_median": statistics.median(vals["parent"]),
            "parent_quartiles": quartiles(vals["parent"]),
            "change_median": statistics.median(vals["change"]),
            "change_quartiles": quartiles(vals["change"]),
            "change_better_pairs": wins,
        }
    return out


def _git_rev(path):
    try:
        return subprocess.run(["git", "-C", path, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine():
    """Cores, CPU, OS, Python and the numpy/scipy builds the numbers are for."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {"cores": os.cpu_count(), "cpu": cpu,
            "os": f"{platform.system()} {platform.machine()}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": 1,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy)}


def end_to_end_better(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", default=None, help="BENCH_<n>.json to write or extend")
    ap.add_argument("--change-note", default=None, help="what the change does")
    ap.add_argument("--note", default=None, help="how the runs were made")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    cmd = run_command(args.workload, args.seed, args.seconds)
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        pair = {}
        for side in side_order(i):
            done = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True,
                                  check=True)
            pair[side] = last_json_line(done.stdout)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{s} pass_s {pair[s]['metrics']['pass_s']['value']:.4f}" for s in SIDES),
            file=sys.stderr)
    summary = summarize(pairs, end_to_end_better(args.change))
    key = f"{args.workload} seed {args.seed}"
    print(json.dumps({key: summary}, indent=2))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["command"] = "python3 bench/run.py --workload <workload> --seed <seed> --seconds " \
                         f"{args.seconds:g}"
        doc["note"] = args.note or doc.get("note") or (
            "runs: the first pair's records per workload; summary: every alternating pair "
            "(the side that runs first alternates); times are scaled to the probe's "
            "reference speed (bench/README.md)")
        doc["parent"] = _git_rev(args.parent) or doc.get("parent")
        doc["change"] = args.change_note or doc.get("change") or _git_rev(args.change)
        doc["machine"] = machine()
        doc.setdefault("runs", {})[args.workload] = dict(pairs[0])
        doc.setdefault("summary", {})[key] = summary
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
