"""Spans and counts taken around `rrqr`'s functions from outside the package.

`Tracer.installed()` replaces each traced function by a wrapper wherever
a caller looks it up: in every `rrqr` module namespace that holds it
(modules import each other's functions by name, so
`rrqr.randomized.apply_block_qt` is wrapped apart from
`rrqr.householder.apply_block_qt`), and on the class for the two methods
traced.  On exit every original is put back.

A span records name, start, end, the span that was open when it started
(its parent) and the benchmark operation it belongs to.  A layer's time
is its self time: the span's duration minus that of its child spans, so
the layer times of a phase add up to its traced time.  Counts are taken
at the same call boundaries.  Totals are kept per phase (input
generation, and each traced round).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, function): a span is recorded around each call.
SPANS = [
    ("householder.hqr_blk", "householder", "hqr_blk"),
    ("householder.hqr_unb_formT", "householder", "hqr_unb_formT"),
    ("householder.apply_block_qt", "householder", "apply_block_qt"),
    ("householder.form_q", "householder", "form_q"),
    ("pivoting.hqrp_blk", "pivoting", "hqrp_blk"),
    ("pivoting.hqrp_panel_var3", "pivoting", "hqrp_panel_var3"),
    ("pivoting.var1_engine", "pivoting", "_var1_engine"),
    ("pivoting.mgsp", "pivoting", "mgsp"),
    ("randomized.hqrrp_blk", "randomized", "hqrrp_blk"),
    ("randomized.build_sketch", "randomized", "build_sketch"),
    ("randomized.select_block_pivots", "randomized", "select_block_pivots"),
    ("randomized.downdate_sketch", "randomized", "downdate_sketch"),
    ("quality.truncation_errors", "quality", "truncation_errors"),
    ("quality.spectral_norm", "quality", "_spectral_norm"),
    ("testmats.jacobi_svd_values", "testmats", "jacobi_svd_values"),
    ("testmats.generate", "testmats", "gen_fast_decay"),
    ("testmats.generate", "testmats", "gen_s_shape"),
    ("testmats.generate", "testmats", "gen_bie_single_layer"),
    ("testmats.generate", "testmats", "gen_kahan"),
    ("core.level3", "core", "matmul"),
    ("core.level3", "core", "solve_upper"),
]


def _matmul_flops(a, b, *_, **__) -> int:
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _solve_flops(t, b, *_, **__) -> int:
    return t.shape[0] * t.shape[0] * (b.shape[1] if b.ndim == 2 else 1)


_FLOPS = {"matmul": _matmul_flops, "solve_upper": _solve_flops}


class Tracer:
    """Spans and counts of the `rrqr` calls made while installed."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end, op, phase)
        self.phases = {}  # phase -> {metric: total}; ints, except seconds
        self.op = None
        self._stack = []  # [span id, child seconds] of each open span
        self._next_id = 0
        self._phase = None
        self._totals = None

    def _wrap(self, name, fn, record=True, flops=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                totals = tracer._totals
                totals[name + ".calls"] += 1
                totals[name + ".s"] += end - start - frame[1]
                if flops is not None:
                    totals[name + ".flops"] += flops(*args, **kwargs)
                if record:
                    tracer.spans.append(
                        (span_id, parent, name, start, end, tracer.op, tracer._phase)
                    )

        return wrapper

    def _counted_raw(self, raw):
        span = self._wrap("rng.raw", raw)
        tracer = self

        def wrapped(rng, n):
            tracer._totals["rng.raw.words"] += int(n)
            return span(rng, n)

        return wrapped

    def _counted_housev(self, housev):
        tracer = self

        def wrapped(x):
            out = housev(x)
            if out[0] == 0.0:
                tracer._totals["householder.degenerate_reflectors"] += 1
            return out

        return wrapped

    def _counted_downdate(self, downdate):
        tracer = self

        def wrapped(weights, start, r_row, recompute=None):
            if recompute is not None:
                # called once per drifted column: aggregated, not recorded
                recompute = tracer._wrap("pivoting.weight_recompute", recompute, record=False)
            return downdate(weights, start, r_row, recompute)

        return wrapped

    def _counted_mgsp(self, mgsp):
        tracer = self

        def wrapped(a, max_steps=None, step_hook=None):
            out = mgsp(a, max_steps=max_steps, step_hook=step_hook)
            if max_steps is not None:
                # select_block_pivots pads a short trail with identity swaps
                tracer._totals["randomized.padded_pivots"] += max_steps - len(out[2])
            return out

        return wrapped

    @contextmanager
    def installed(self, phase: str):
        """Trace every `rrqr` call made inside the block, under `phase`."""
        import rrqr
        from rrqr import householder, pivoting, randomized, rng

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rrqr"]
        patched = []  # (owner, attribute, original)

        def replace_everywhere(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        def replace(owner, attr, wrapper):
            patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        self._phase = phase
        self._totals = self.phases.setdefault(phase, defaultdict(int))
        try:
            for name, module, attr in SPANS:
                original = getattr(getattr(rrqr, module), attr)
                replace_everywhere(original, self._wrap(name, original, flops=_FLOPS.get(attr)))
            replace_everywhere(householder.housev, self._counted_housev(householder.housev))
            replace(randomized, "mgsp", self._counted_mgsp(randomized.mgsp))
            replace(rng.Xoshiro256pp, "raw", self._counted_raw(rng.Xoshiro256pp.raw))
            replace(
                pivoting.WeightVector,
                "downdate",
                self._counted_downdate(pivoting.WeightVector.downdate),
            )
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._phase = self._totals = None
