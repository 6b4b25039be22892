"""Rounds of timed operations, each output checked as it is made.

An operation is one factorization or one truncation-error curve.  A
round makes `passes` factorization passes, in each of which every
algorithm in turn factors a fresh copy of every input, and then
`curve_passes` passes over the curves of every input's hqrp_blk and
hqrrp factors.  Interleaving the
algorithms inside a pass makes slow drift of a shared machine touch them
alike.  Between operations, every `bench_speed.REFERENCE_EVERY_S`
seconds, the runner also times `bench_speed.reference_work`, so that a
run's timings can be scaled to one machine speed.  Checks run between
operations, outside every timed interval.

The drivers are deterministic at a fixed seed, so an operation repeated
in a later pass or round makes the same output bit for bit.  Such an
output is compared with the copy kept of the one that passed every
check; only an output that differs from it is checked in full again.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import bench_checks as checks
import bench_speed
from bench_workloads import (
    ALGORITHMS,
    CURVE_ALGORITHMS,
    curve,
    curve_ranks,
    curve_sigmas,
    factor,
)
from rrqr import core, rng

# Successive calls made on one generator per seed, whose outputs are
# compared with the scalar reference: odd and even sizes, as the drivers
# draw them (13 x 257 and 13 x 249 are basic mode's first two sketches
# at b = 8, p = 5 on a 257-row input).
RNG_CHECK_DRAWS = (("normals", 13 * 257), ("normals", 13 * 249), ("raw", 17),
                   ("normals", 1), ("raw", 4096), ("normals", 4096))


def rng_draws(gen) -> list:
    """(kind, n, output) of each of RNG_CHECK_DRAWS, drawn in turn from `gen`."""
    return [(kind, n, getattr(gen, kind)(n)) for kind, n in RNG_CHECK_DRAWS]


@dataclass
class Reference:
    """What the checks compare an input's outputs with, computed apart
    from the program once per input."""

    gram: np.ndarray  # A^T A
    sv: np.ndarray  # singular values, scipy
    dgeqp3_perm: np.ndarray | None  # LAPACK's classical pivot order


@dataclass
class Round:
    algos: dict  # algorithm -> seconds of each complete pass
    curves: list  # seconds of each complete curve pass
    ops_s: float  # seconds of every operation of the round
    flops: dict  # algorithm -> counted level-3 flops (when counting)
    lapack: dict  # "dgeqrf"/"dgeqp3" -> seconds (when asked)
    reference: list  # seconds of each `bench_speed.reference_work` call


def _same(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return np.array_equal(x, y)


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []  # messages of failed checks
        self.refs = None
        self.verified = {}  # operation -> arrays of its output that passed
        self.tracer = None  # labels the spans of each operation when set
        self.threads = bench_speed.process_threads()  # before any operation
        self.reference = []  # seconds of each reference timing of the current round
        self.reference_at = -math.inf  # when the last reference timing ended

    def warm_up(self) -> None:
        """One call per algorithm on the largest input, then one curve of
        each of its CURVE_ALGORITHMS factors: untimed, unchecked.  Among
        inputs of one size it takes one without known singular values, so
        that a spectral workload's warm-up runs the Jacobi oracle too."""
        inp = max(self.wl.inputs, key=lambda i: (i.a.size, i.sigmas is None))
        sigmas = curve_sigmas(inp, self.wl.spectral)
        for algo in ALGORITHMS:
            f = factor(algo, inp.a.copy(order="F"), inp, rng.Xoshiro256pp(inp.rng_seed))
            if algo in CURVE_ALGORITHMS:
                curve(inp, f, sigmas, self.wl.spectral)

    def prepare_checks(self) -> None:
        """Compute the reference data, and check the RNG stream of every
        seed the workload uses against the scalar reference.  Also makes
        the inputs of the reference work, with one untimed call."""
        bench_speed.reference_work()
        self.refs = []
        for inp in self.wl.inputs:
            perm = None
            if inp.gaussian:
                perm = scipy.linalg.qr(inp.a, mode="r", pivoting=True, check_finite=False)[1]
            sv = scipy.linalg.svdvals(inp.a, check_finite=False)
            self.refs.append(Reference(inp.a.T @ inp.a, sv, perm))
        for seed in self.wl.seeds():
            draws = rng_draws(rng.Xoshiro256pp(seed))
            self._check(f"rng seed {seed}", checks.check_rng_stream, seed, draws)

    def _check(self, label, fn, *args) -> bool:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(f"{label}: {exc}")
        except Exception as exc:  # a malformed output: report it, keep measuring
            self.errors.append(f"{label}: check raised {type(exc).__name__}: {exc}")
        else:
            return True
        return False

    def _check_once(self, label, arrays, fn, *args) -> None:
        """Check an output unless it equals, bit for bit, one that passed."""
        seen = self.verified.get(label)
        if seen is not None and all(map(_same, seen, arrays)):
            return
        if self._check(label, fn, *args):
            self.verified[label] = [None if x is None else np.copy(x) for x in arrays]

    def _op(self, label, fn):
        """Run one operation; returns (output, seconds), or (None, None) if it raised."""
        if time.perf_counter() - self.reference_at >= bench_speed.REFERENCE_EVERY_S:
            self._time_reference()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = label
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None
        return out, time.perf_counter() - start

    def _time_reference(self) -> None:
        """Time the reference work, which must not share the CPU with a
        thread the program left running."""
        threads = bench_speed.process_threads()
        if threads != self.threads:
            self.errors.append(f"{threads} threads run in the process, {self.threads} at "
                               "the start: the reference timing shares the CPU with them")
        self.reference.append(bench_speed.reference_seconds())
        self.reference_at = time.perf_counter()

    def _check_factors(self, algo, inp, ref, f) -> None:
        a = inp.a
        k = min(a.shape)
        r = f.r_matrix()
        perm = checks.trail_permutation(f.trail, a.shape[1])
        checks.check_gram(a, r, perm, ref.gram)
        checks.check_r_matches_lapack(a, r, perm)
        if algo == "hqr_blk":
            return
        checks.check_diag_order(a, r, k if algo == "hqrp_blk" else inp.b)
        if inp.rank is not None:
            checks.check_trailing_block(a, r, inp.rank)
        if algo == "hqrp_blk" and ref.dgeqp3_perm is not None:
            checks.check_pivots_match(perm, ref.dgeqp3_perm, k)

    def _check_curve(self, inp, ref, report) -> None:
        checks.check_curve(inp.a, report, curve_ranks(inp), ref.sv, self.wl.spectral)

    def round(self, count_flops: bool = False, time_lapack: bool = False) -> Round:
        wl = self.wl
        algos = {algo: [] for algo in ALGORITHMS}
        flops = dict.fromkeys(ALGORITHMS, 0)
        ops_s = 0.0
        kept = {}  # (input index, algorithm) -> factors the curves read
        self.reference = []
        for _ in range(wl.passes):
            for algo in ALGORITHMS:
                total, complete = 0.0, True
                for i, inp in enumerate(wl.inputs):
                    a = inp.a.copy(order="F")
                    gen = rng.Xoshiro256pp(inp.rng_seed) if algo.startswith("hqrrp") else None
                    fc = core.FlopCounter() if count_flops else None
                    label = f"{inp.label} {algo}"
                    f, dt = self._op(label, lambda: factor(algo, a, inp, gen, fc))
                    if f is None:
                        complete = False
                        continue
                    total += dt
                    if fc is not None:
                        flops[algo] += fc.count
                    self._check_once(label, (f.packed, f.trail, f.taus), self._check_factors,
                                     algo, inp, self.refs[i], f)
                    if algo in CURVE_ALGORITHMS:
                        kept[i, algo] = f
                ops_s += total
                if complete:
                    algos[algo].append(total)
        curves = []
        for _ in range(wl.curve_passes):
            total, complete = 0.0, True
            for i, inp in enumerate(wl.inputs):
                sigmas = []  # computed by the first curve of the input, in its time

                def make_curve(algo, inp=inp, i=i, sigmas=sigmas):
                    if not sigmas:
                        sigmas.append(curve_sigmas(inp, wl.spectral))
                    return curve(inp, kept[i, algo], sigmas[0], wl.spectral)

                for algo in CURVE_ALGORITHMS:
                    label = f"{inp.label} {algo} curve"
                    report, dt = self._op(label, lambda: make_curve(algo))
                    if report is None:
                        complete = False
                        continue
                    total += dt
                    arrays = (report.e_frob, report.e_spec, report.sv_bound_frob,
                              report.sv_bound_spec)
                    self._check_once(label, arrays, self._check_curve, inp, self.refs[i], report)
            ops_s += total
            if complete:
                curves.append(total)
        times = {}
        if time_lapack:
            # scipy's qr queries the optimal workspace, so LAPACK runs blocked
            times = {"dgeqrf": 0.0, "dgeqp3": 0.0}
            for inp in wl.inputs:
                for name, pivoting in (("dgeqrf", False), ("dgeqp3", True)):
                    a = inp.a.copy(order="F")
                    start = time.perf_counter()
                    scipy.linalg.qr(a, mode="raw", pivoting=pivoting, overwrite_a=True,
                                    check_finite=False)
                    times[name] += time.perf_counter() - start
        return Round(algos, curves, ops_s, flops, times, self.reference)

    def measure(self, seconds: float, step) -> list:
        """Call `step()` (one round, or a pair of rounds) until the next
        call would end past `seconds`; at least once."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(step())
            elapsed = time.perf_counter() - start
            if elapsed * (len(results) + 1) / len(results) > seconds:
                return results
