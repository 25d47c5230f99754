#!/usr/bin/env python3
"""Closed-loop benchmark of ``dicholab.cli.run`` on four planted workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process calls ``cli.run`` on the workload's configs, one
after the other; an operation is one call with its reports written to
disk, a pass runs every config once.  A warm-up pass comes first, then
passes repeat until ``--seconds`` have gone by.  Every operation's outputs
are checked (``checks.py``) after its pass, outside the timed region.

Operation and set-up times are given at the reference speed of a fixed
probe kernel timed just before and after each of them (see ``probe``),
because the raw wall clock of a shared machine drifts by more than any
bound a regression check could use.

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter (median of several), median pass time, median operation time
and peak resident memory.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of ``spans.py`` per pass, the raw
wall-clock figures and the tracing overhead.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# the work is many small matrices; BLAS threads would only add contention
# on top of the sweep pool, whose size the workload sets
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

#: fresh interpreters timed per run for setup_s
SETUP_REPS = 7
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import dicholab.cli as cli
for cfg in json.load(sys.stdin):
    cli.validate_config(cfg)
"""

#: probe time that defines the reference speed: the probe's median on the
#: 2-core reference machine of README.md
PROBE_REF_S = 0.005
_PROBE_INPUT = np.random.default_rng(0).standard_normal((200, 3, 3))

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def probe():
    """Wall time of a fixed kernel of the program's kind: small batched
    SVDs and a Python loop over their results."""
    t0 = time.perf_counter()
    for _ in range(10):
        s = np.linalg.svd(_PROBE_INPUT, compute_uv=False)
        sum(float(v) for v in s[:, 0])
    return time.perf_counter() - t0


def per_layer_metrics():
    """(metric, unit) of every per-layer figure, in BENCHMARK.json order."""
    from spans import MATRIX_COUNTERS, SPANS

    out = []
    for mod, names in SPANS.items():
        for fname in names:
            out += [(f"{mod}.{fname}.calls", "count"), (f"{mod}.{fname}.self_s", "s")]
    out += [(m, "count") for m in MATRIX_COUNTERS.values()]
    out += [("cli.output_bytes", "bytes"), ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
            ("wall.pass_s", "s"), ("wall.op_p50_s", "s"), ("probe.median_s", "s")]
    return out


def load_program():
    if not os.path.isfile(os.path.join(SRC, "dicholab", "cli.py")):
        sys.exit(f"bench: no dicholab sources under {SRC}")
    sys.path.insert(0, SRC)
    import dicholab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: dicholab imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(ops):
    """Median time, at reference speed, of a fresh interpreter importing
    dicholab.cli and schema-validating the workload's configs."""
    payload = json.dumps([op.cfg for op in ops])
    times = []
    before = probe()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], input=payload, text=True,
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        t = time.perf_counter() - t0
        after = probe()
        times.append(t * PROBE_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


class Pass:
    """Raw wall time of each op, and the same at the probe's reference speed."""

    def __init__(self, times, probes, outcomes):
        self.times = times
        self.outcomes = outcomes
        self.probes = probes
        self.scaled = [t * PROBE_REF_S / (0.5 * (a + b))
                       for t, a, b in zip(times, probes, probes[1:])]

    @property
    def scaled_s(self):
        return sum(self.scaled)


class Runner:
    def __init__(self, cli, workload, ops):
        import checks

        self.cli = cli
        self.checks = checks
        self.ops = ops
        # one directory per process, so concurrent runs cannot mix outputs
        self.root = os.path.join(OUT, f"{workload}-{os.getpid()}")
        self.dirs = [os.path.join(self.root, op.name) for op in ops]
        self.expect = [checks.prepare(op) for op in ops]
        self.reference = [None] * len(ops)
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.bytes_per_pass = 0

    def run_pass(self):
        cfgs = [copy.deepcopy(op.cfg) for op in self.ops]
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        outcomes, times, probes = [], [], [probe()]
        run = self.cli.run
        for op, cfg, d in zip(self.ops, cfgs, self.dirs):
            t0 = time.perf_counter()
            try:
                outcomes.append((run(cfg, d, op.threads), None))
            except Exception as e:  # an op that raises is a failed op
                outcomes.append((None, e))
            times.append(time.perf_counter() - t0)
            probes.append(probe())
        return Pass(times, probes, outcomes)

    def check_pass(self, p, timed=True):
        """Check every op's outputs; count attempts and failures if timed."""
        total = 0
        for i, (op, (rc, err)) in enumerate(zip(self.ops, p.outcomes)):
            if timed:
                self.attempted += 1
            if err is not None:
                if timed:
                    self.failed += 1
                if not op.expect_failure:
                    self.fail(op, f"raised {type(err).__name__}: {err}")
                continue
            try:
                self.checks.check(op, self.expect[i], self.dirs[i], rc)
                fp = self.checks.fingerprint(self.dirs[i])
            except Exception as e:  # a changed report format is a failed check too
                self.fail(op, f"{type(e).__name__}: {e}")
                continue
            if self.reference[i] is None:
                self.reference[i] = fp
            elif fp != self.reference[i]:
                self.fail(op, "outputs differ from the first pass of this run")
            total += self.checks.output_bytes(self.dirs[i])
        self.bytes_per_pass = total

    def fail(self, op, msg):
        self.correct = False
        print(f"bench: check failed for {op.name}: {msg}", file=sys.stderr)


def medians(passes, times):
    """(median pass, median op) from each op's median over the passes.

    Every op is attempted once per pass, so both are built from the ops'
    own medians; a pooled median over all ops would land between two ops'
    clusters whenever a pass has an even number of ops.
    """
    per_op = [statistics.median(ts) for ts in zip(*(getattr(p, times) for p in passes))]
    return sum(per_op), statistics.median(per_op)


def run_untraced(runner, seconds, setup_s):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        runner.check_pass(passes[-1])
        if time.perf_counter() - start >= seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s, op_p50_s = medians(passes, "scaled")
    return {"setup_s": setup_s, "pass_s": pass_s, "op_p50_s": op_p50_s, "peak_rss_mb": peak}


def run_traced(runner, seconds):
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    calls, self_s, counts = {}, {}, {}
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        runner.check_pass(plain[-1])
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        runner.check_pass(traced[-1])
        c, s = tracer.self_times()
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in tracer.counts.items():
            counts[k] = counts.get(k, 0) + v
        tracer.reset()
        if time.perf_counter() - start >= seconds:
            break
    n = len(traced)
    out = {}
    for name, unit in per_layer_metrics():
        if name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0) / n
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0) / n
        elif unit == "count":
            out[name] = counts.get(name, 0) / n
    # means of raw wall time, so that the self times add up to trace.pass_s
    out["cli.output_bytes"] = runner.bytes_per_pass
    out["trace.pass_s"] = statistics.fmean(sum(p.times) for p in traced)
    out["trace.overhead_s"] = (statistics.fmean(p.scaled_s for p in traced)
                               - statistics.fmean(p.scaled_s for p in plain))
    out["wall.pass_s"], out["wall.op_p50_s"] = medians(plain, "times")
    out["probe.median_s"] = statistics.median(x for p in plain + traced for x in p.probes)
    attributed = sum(v for k, v in out.items() if k.endswith(".self_s"))
    gap = out["trace.pass_s"] - attributed
    if abs(gap) > abs(out["trace.overhead_s"]) + 1e-3:
        runner.correct = False
        print(f"bench: self times miss {gap:.4f} s of the traced pass", file=sys.stderr)
    return out


def main(argv=None):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    cli = load_program()
    ops = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup(ops)
    runner = Runner(cli, args.workload, ops)
    try:
        runner.check_pass(runner.run_pass(), timed=False)   # warm-up
        if args.trace:
            values = run_traced(runner, args.seconds)
            units = dict(per_layer_metrics())
        else:
            values = run_untraced(runner, args.seconds, setup_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(runner.root, ignore_errors=True)
        if os.path.isdir(OUT) and not os.listdir(OUT):
            os.rmdir(OUT)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
