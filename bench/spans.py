"""Spans around the public functions of each dicholab module, from outside.

The package binds its functions with ``from .x import f``, so a function
is looked up through every module that imported it.  ``Tracer.install``
replaces the function object under every name that holds it in every
loaded ``dicholab`` module, and ``uninstall`` puts the originals back, so
untraced passes run the unmodified program.

A span records (name, start, end, parent).  The parent is the innermost
open span of the same thread; a span opened by a worker thread with no
open span of its own takes the main thread's innermost span as parent
(the sweep pool runs its points for the ``cli.run`` that started them).

Self time partitions wall time: at each instant the spans open with no
open child are the ones doing the work, and they share that instant
equally (under the interpreter lock at most one of them executes).  The
self times of all spans therefore sum to the time covered by the root
spans, whatever the thread count.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: module -> public functions timed as spans
SPANS = {
    "dichotomy": ("stable_slack_grid", "unstable_slack_grid", "fit_certificate",
                  "verify_dichotomy"),
    "splitting": ("characterize", "classify_directions", "build_projections"),
    "admissibility": ("solve_admissibility", "oracle_solve", "operator_norm_T",
                      "uniqueness_probe"),
    "robustness": ("verify_persistence", "perturbed_system", "make_perturbation",
                   "smallness_margin"),
    "system": ("make_planted_model",),
    "cli": ("run",),
}

#: (module, function) -> metric counting the matrices it takes norms of
MATRIX_COUNTERS = {("linalg", "batched_spectral_norms"): "linalg.batched_spectral_norms.matrices"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._saved = []         # (module, attribute, original)

    # ------------------------------------------------------------ wiring

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            rec = [name, time.perf_counter(), None, parent]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(stack, *args, **kwargs):
            with self._lock:
                self.counts[metric] += len(stack)
            return fn(stack, *args, **kwargs)
        return wrapper

    def install(self):
        import dicholab  # noqa: F401  (loads every submodule)

        wrappers = []
        for mod, names in SPANS.items():
            module = sys.modules[f"dicholab.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers.append((fn, self._span_wrapper(f"{mod}.{fname}", fn)))
        for (mod, fname), metric in MATRIX_COUNTERS.items():
            fn = getattr(sys.modules[f"dicholab.{mod}"], fname)
            wrappers.append((fn, self._count_wrapper(metric, fn)))
        originals = {id(fn): w for fn, w in wrappers}
        for mname, module in list(sys.modules.items()):
            if mname != "dicholab" and not mname.startswith("dicholab."):
                continue
            for attr, value in list(vars(module).items()):
                w = originals.get(id(value))
                if w is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, w)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # ----------------------------------------------------------- summary

    def self_times(self):
        """(calls, self seconds) per span name, by wall-time partition."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        events = []
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            events.append((t0, 1, i))
            events.append((t1, 0, i))
        events.sort()
        open_children = defaultdict(int)
        active = set()
        prev = None
        for t, kind, i in events:
            if prev is not None and t > prev and active:
                leaves = [j for j in active if open_children[j] == 0]
                share = (t - prev) / len(leaves)
                for j in leaves:
                    self_s[self.spans[j][0]] += share
            prev = t
            parent = self.spans[i][3]
            if kind == 1:
                active.add(i)
                if parent is not None:
                    open_children[parent] += 1
            else:
                active.discard(i)
                if parent is not None:
                    open_children[parent] -= 1
        return calls, self_s
