#!/usr/bin/env python3
"""Benchmark of rrqr's QR drivers: one workload, one process, one BLAS thread.

Run from the root of the repository:

    python3 perfbench/run.py --workload large-gaussian --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics, every time in it scaled to the machine speed
of `bench_speed.REFERENCE_S`; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead, whose spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.  Every run also
writes its samples, checks and environment to ``perfbench/out/``.
See README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import bench_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


# (metric, unit) of the traced run, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("rng.raw.calls", "count"),
    ("rng.raw.words", "count"),
    ("rng.raw.s", "s"),
    ("randomized.hqrrp_blk.s", "s"),
    ("randomized.build_sketch.s", "s"),
    ("randomized.select_block_pivots.s", "s"),
    ("randomized.select_block_pivots.calls", "count"),
    ("randomized.downdate_sketch.s", "s"),
    ("randomized.padded_pivots", "count"),
    ("pivoting.mgsp.s", "s"),
    ("pivoting.var1_engine.s", "s"),
    ("pivoting.hqrp_blk.s", "s"),
    ("pivoting.hqrp_panel_var3.s", "s"),
    ("pivoting.weight_recomputes", "count"),
    ("pivoting.weight_recompute.s", "s"),
    ("householder.hqr_blk.s", "s"),
    ("householder.hqr_unb_formT.s", "s"),
    ("householder.apply_block_qt.s", "s"),
    ("householder.apply_block_qt.calls", "count"),
    ("householder.form_q.s", "s"),
    ("householder.degenerate_reflectors", "count"),
    ("core.level3_flops.hqr_blk", "flop"),
    ("core.level3_flops.hqrp_blk", "flop"),
    ("core.level3_flops.hqrrp", "flop"),
    ("core.level3_flops.hqrrp_basic", "flop"),
    ("core.level3.s", "s"),
    ("core.level3.gflops", "Gflop/s"),
    ("quality.truncation_errors.s", "s"),
    ("quality.spectral_norm.calls", "count"),
    ("quality.spectral_norm.s", "s"),
    ("testmats.jacobi_svd_values.calls", "count"),
    ("testmats.jacobi_svd_values.s", "s"),
    ("testmats.generate.s", "s"),
    ("ref.dgeqrf.s", "s"),
    ("ref.dgeqp3.s", "s"),
    ("ref.hqrrp_over_dgeqp3", "ratio"),
    ("ref.hqrrp_over_hqr_blk", "ratio"),
    ("trace.overhead_s", "s"),
    ("machine.reference_s", "s"),
]
# Tracer totals reported under another name.
_TRACER_KEYS = {"pivoting.weight_recomputes": "pivoting.weight_recompute.calls"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_s(rounds) -> float:
    """Median time of the reference work over the run."""
    return statistics.median(s for r in rounds for s in r.reference)


def end_to_end_metrics(rounds, algorithms, scale=1.0) -> dict:
    """Median, over the run, of each algorithm's pass time and of the
    curves, times `scale`."""
    values = {
        f"{algo}_s": scale * statistics.median(s for r in rounds for s in r.algos[algo])
        for algo in algorithms
    }
    values["curves_s"] = scale * statistics.median(s for r in rounds for s in r.curves)
    return values


def layer_metrics(tracer, plain, traced, algorithms, errors) -> dict:
    """Each layer's total over the traced input generation and one traced
    round: the median round for times, the round's exact value for counts
    (which must repeat in every traced round)."""
    gen = tracer.phases.get("generate", {})
    phases = [tracer.phases[f"round-{i}"] for i in range(len(traced))]

    def per_round(key, values):
        if key.endswith(".s"):
            return float(statistics.median(values))
        if len(set(values)) != 1:
            errors.append(f"count {key} differs between traced rounds: {values}")
        return values[0]

    values = {}
    for name, _ in LAYER_METRICS:
        key = _TRACER_KEYS.get(name, name)
        if name.startswith(("core.level3_flops.", "core.level3.gflops", "ref.", "trace.",
                            "machine.")):
            continue
        values[name] = gen.get(key, 0) + per_round(key, [ph.get(key, 0) for ph in phases])
    for algo in algorithms:
        values[f"core.level3_flops.{algo}"] = per_round(
            algo, [r.flops[algo] for r in traced]
        )
    level3_s = sum(ph.get("core.level3.s", 0.0) for ph in [gen, *phases])
    level3_flops = sum(ph.get("core.level3.flops", 0) for ph in [gen, *phases])
    values["core.level3.gflops"] = level3_flops / level3_s / 1e9 if level3_s else 0.0
    # the LAPACK references and the untraced wall times come from the untraced rounds
    untraced = end_to_end_metrics(plain, algorithms)
    values["machine.reference_s"] = reference_s(plain)
    values["ref.dgeqrf.s"] = statistics.median(r.lapack["dgeqrf"] for r in plain)
    values["ref.dgeqp3.s"] = statistics.median(r.lapack["dgeqp3"] for r in plain)
    values["ref.hqrrp_over_dgeqp3"] = untraced["hqrrp_s"] / values["ref.dgeqp3.s"]
    values["ref.hqrrp_over_hqr_blk"] = untraced["hqrrp_s"] / untraced["hqr_blk_s"]
    values["trace.overhead_s"] = statistics.median(r.ops_s for r in traced) - statistics.median(
        r.ops_s for r in plain
    )
    return {name: values[name] for name, _ in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrqr" / "__init__.py").is_file():
        print(f"run.py: no rrqr sources at {SRC / 'rrqr'}", file=sys.stderr)
        return 2
    bench_env.cap_blas_threads()
    malloc_pinned = bench_env.pin_malloc_thresholds()
    sys.path.insert(0, str(SRC))
    import rrqr

    if Path(rrqr.__file__).resolve().parent != (SRC / "rrqr").resolve():
        print(f"run.py: imported rrqr from {rrqr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        env = bench_env.environment(bench_env.check_one_thread(), malloc_pinned)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    from bench_runner import Runner
    from bench_speed import REFERENCE_S
    from bench_trace import Tracer
    from bench_workloads import ALGORITHMS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload = make(args.seed)
    else:
        tracer.op = "generate"
        with tracer.installed("generate"):
            workload = make(args.seed)
    runner = Runner(workload)
    runner.warm_up()
    setup_s = time.perf_counter() - _START
    # at the end of set-up, before any check allocates its own temporaries
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.prepare_checks()

    if tracer is None:
        rounds = runner.measure(args.seconds, runner.round)
        # times at the machine speed of REFERENCE_S (see bench_speed)
        scale = REFERENCE_S / reference_s(rounds)
        metrics = end_to_end_metrics(rounds, ALGORITHMS, scale)
        metrics.update(setup_s=setup_s * scale, peak_rss_mb=peak_rss_mb)
        units = {name: "s" for name in metrics}
        units["peak_rss_mb"] = "MB"
        samples = [vars(r) for r in rounds]
    else:
        runner.tracer = tracer

        def pair():
            plain = runner.round(time_lapack=True)
            with tracer.installed(f"round-{len(traced)}"):
                traced.append(runner.round(count_flops=True))
            return plain

        traced = []
        plain = runner.measure(args.seconds, pair)
        metrics = layer_metrics(tracer, plain, traced, ALGORITHMS, runner.errors)
        units = dict(LAYER_METRICS)
        samples = {"plain": [vars(r) for r in plain], "traced": [vars(r) for r in traced]}

    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, errors=runner.errors, setup_wall_s=setup_s,
                  samples=samples)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        trace = {"phases": tracer.phases, "spans": tracer.spans,
                 "span_fields": ["id", "parent", "name", "start", "end", "op", "phase"]}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace))
    for message in runner.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
