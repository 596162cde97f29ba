"""Spans and call counts around slspec's public functions, from outside.

`Tracer.install()` replaces each traced function under every name it is
bound to in the loaded slspec modules (a caller that did `from .problem
import propagate_state` holds its own binding), so every call is seen
whatever path it takes.  A span records (name, start, end, parent span, job
id); spans are kept in memory and written out with `save`.  Self time is a
span's duration minus the time its child spans cover.  Functions listed in
COUNT_ONLY get a call counter and no span: they take under a microsecond,
so timing them would mostly measure the wrapper.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function, route): the route splits the exact and RK4 paths
TRACED = (
    ("cli", "main", None), ("cli", "load_config", None),
    ("spectra", "eigen_test", None), ("spectra", "boundary_mismatch", None),
    ("spectra", "eigenvalues_in_range", None), ("spectra", "classify_dichotomy", None),
    ("problem", "propagate_through", None), ("problem", "with_site_params", None),
    ("problem", "prufer_trace", None),
    ("transfer", "propagate_state", "route"), ("transfer", "transfer_matrix", "route"),
    ("random", "sample_realization", None), ("random", "mismatch_samples", None),
    ("random", "zeros_of_eigenfunction", None), ("random", "find_class_point", None),
    ("random", "construct_degenerate", None),
)
COUNT_ONLY = (("sl2", "iwasawa_compose"),)


def _route(args, kwargs):
    """exact or rk4, as transfer's method dispatch would choose."""
    method = kwargs.get("method", args[5] if len(args) > 5 else "auto")
    if method == "auto":
        return "exact" if args[0].is_piecewise_constant else "rk4"
    return method


def span_names():
    names = []
    for mod, fn, route in TRACED:
        if route:
            names += [f"{mod}.{fn}.exact", f"{mod}.{fn}.rk4"]
        else:
            names.append(f"{mod}.{fn}")
    return names


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.count_only = [f"{m}.{f}" for m, f in COUNT_ONLY]
        self.job = -1
        self.n_found = 0  # eigenvalues returned by eigenvalues_in_range
        # spans, one entry each in parallel arrays
        self.s_name, self.s_parent, self.s_job = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self._stack = []  # [span index, child time]
        self.calls = {n: 0 for n in self.names + self.count_only}
        self.self_s = {n: 0.0 for n in self.names}

    def reset_totals(self):
        """Zero the counters in place (the wrappers hold these dicts)."""
        for n in self.calls:
            self.calls[n] = 0
        for n in self.self_s:
            self.self_s[n] = 0.0
        self.n_found = 0

    def _wrap(self, name_of, original):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = len(tracer.s_name)
            tracer.s_name.append(tracer._ids[name])
            tracer.s_parent.append(stack[-1][0] if stack else -1)
            tracer.s_job.append(tracer.job)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.s_start[idx], tracer.s_end[idx] = t0, t1
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if name == "spectra.eigenvalues_in_range":
                tracer.n_found += len(result)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_count(self, name, original):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def install(self):
        import slspec  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "slspec" or n.startswith("slspec."))]
        plan = []
        for mod, fn, route in TRACED:
            original = getattr(sys.modules[f"slspec.{mod}"], fn)
            if route:
                def name_of(args, kwargs, base=f"{mod}.{fn}"):
                    return f"{base}.{_route(args, kwargs)}"
            else:
                def name_of(args, kwargs, n=f"{mod}.{fn}"):
                    return n
            plan.append((original, self._wrap(name_of, original)))
        for mod, fn in COUNT_ONLY:
            original = getattr(sys.modules[f"slspec.{mod}"], fn)
            plan.append((original, self._wrap_count(f"{mod}.{fn}", original)))
        for original, wrapper in plan:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def totals(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "eigs_found": self.n_found}

    def save(self, path):
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            job=np.frombuffer(self.s_job, dtype=np.int32),
            start=np.frombuffer(self.s_start), end=np.frombuffer(self.s_end))
