#!/usr/bin/env python3
"""Sweep the perturbation amplitude and print margin/verdict per point.

Plants a hyperbolic model, draws budget-saturating random perturbations
with geometrically decaying envelopes, and reports how far each amplitude
sits from the smallness threshold alongside the persistence verdict."""

import argparse
import json
import os
import tempfile

from dicholab.cli import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1, 0.2, 0.5],
                    help="perturbation amplitudes c to sweep")
    ap.add_argument("--window-end", type=int, default=40)
    ap.add_argument("--dims", type=int, nargs=2, default=[1, 1],
                    metavar=("STABLE", "UNSTABLE"))
    ap.add_argument("--cond", type=float, default=3.0,
                    help="conditioning of the planted similarity frame")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None,
                    help="report directory (default: a fresh temp dir)")
    args = ap.parse_args()
    out = args.out_dir or tempfile.mkdtemp(prefix="persistence_sweep_")
    cfg = {
        "scenario": "sweep",
        "seed": args.seed,
        "system": {
            "source": "planted",
            "rate": {"kind": "exponential", "domain": "one_sided",
                     "window": [0, args.window_end]},
            "lambda_stable": 1.0,
            "lambda_unstable": 1.0,
            "dims": list(args.dims),
            "cond": args.cond,
        },
        "sweep": {"axis": "c", "values": list(args.amplitudes)},
    }
    rc = run(cfg, out_dir=out)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["results"]["sweep"]["rows"]
    print(f"{'c':>8}  {'margin':>12}  {'verdict':>14}  {'max drift':>12}")
    for r in rows:
        margin = "nan" if r["margin"] is None else f"{r['margin']:.6f}"
        drift = "nan" if r["max_drift"] is None else f"{r['max_drift']:.3e}"
        print(f"{r['c']:>8}  {margin:>12}  {r['verdict']:>14}  {drift:>12}")
    print(f"\nreports written to {out}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
