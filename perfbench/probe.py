"""Wrappers at the boundaries of rthdg's layers: spans for tracing, captures for checks.

A ``Probe`` replaces public functions of the program's modules with thin
wrappers for the duration of a ``with`` block and restores them after; the
program's own code is not changed. Each wrapper hands the call to a hook:
``Tracer`` records a span (name, start, end, parent, counts), ``Capture``
keeps the last result of each call so the checks can read outputs that the
public entry points do not return.
"""

import functools
import statistics
import threading
import time

import numpy as np

from rthdg import bench, datagen, dg, hybrid, local, surrogate


def _ops_bytes(ops):
    return sum(a.nbytes for o in ops for a in vars(o).values() if isinstance(a, np.ndarray))


#: (owner, attribute, span name, counts taken from the result)
TARGETS = (
    (bench, "build_problem", "setup.build_problem", None),
    (bench, "run_case", "bench.run_case", None),
    (bench, "exact_local_ops", "bench.exact_local_ops",
     lambda ops: {"elements": len(ops), "retained_bytes": _ops_bytes(ops)}),
    (bench, "surrogate_local_ops", "bench.surrogate_local_ops", None),
    (bench, "solve_element", "local.solve_element", None),
    (datagen, "solve_element", "local.solve_element", None),
    (local, "assemble_local", "local.assemble_local", None),
    (local, "local_solve", "local.local_solve", None),
    (local, "extract_operators", "local.extract_operators", None),
    (bench, "assemble_hybrid", "hybrid.assemble_hybrid", lambda s: {"free_dofs": s.n_free}),
    (bench, "project_boundary", "hybrid.project_boundary", None),
    (bench, "solve_hybrid", "hybrid.solve_hybrid", lambda r: {"iters": r[1].iterations}),
    (hybrid.HybridSystem, "linear_action", "hybrid.linear_action", None),
    (bench, "recover_mean_intensity", "hybrid.recover_mean_intensity", None),
    (dg, "assemble_dg", "dg.assemble_dg", lambda s: {"nnz": s.matrix.nnz}),
    (dg.DgSystem, "preconditioner", "dg.preconditioner",
     lambda lu: {"lu_nnz": lu.L.nnz + lu.U.nnz}),
    (dg, "solve_dg", "dg.solve_dg", lambda r: {"iters": r[1].iterations}),
    (dg, "dg_mean_intensity", "dg.dg_mean_intensity", None),
    (surrogate, "forward", "surrogate.forward", None),
    (surrogate, "unflatten_operators", "surrogate.unflatten_operators", None),
    (surrogate, "mae_gradients", "surrogate.mae_gradients", None),
    (surrogate, "mae_loss", "surrogate.mae_loss", None),
    (surrogate, "train", "surrogate.train", lambda st: {"steps": st.step}),
    (datagen, "generate_dataset", "datagen.generate_dataset",
     lambda ds: {"resamples": ds.meta["resamples"]}),
    (datagen, "sample_sigma", "datagen.sample_sigma", None),
)


def missing_targets():
    """Names in TARGETS that the program no longer has (they are skipped)."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in TARGETS if not hasattr(o, a)]


class Probe:
    """Context manager that routes calls to TARGETS through hook(name, counts, fn, args, kwargs)."""

    def __init__(self, hook):
        self.hook = hook
        self._saved = []

    def __enter__(self):
        for owner, attr, name, counts in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, counts):
        hook = self.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return hook(name, counts, fn, args, kwargs)
        return wrapper


class Tracer:
    """Records spans in memory; parents follow the call stack of each thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def __call__(self, name, counts, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {"name": name, "parent": stack[-1] if stack else None}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def root(self, name, fn, *args, **kwargs):
        """A span around one of the benchmark's own operations."""
        return self(name, None, fn, args, kwargs)


class Capture(dict):
    """Keeps the last result of every wrapped call, keyed by span name."""

    def __call__(self, name, counts, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self[name] = result
        return result


def span_cost_s(calls=20000, repeats=5):
    """Seconds one traced call costs more than a bare one: a no-op, median of repeats."""
    def noop():
        return None
    costs = []
    for _ in range(repeats):
        wrapped = Probe(Tracer())._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
