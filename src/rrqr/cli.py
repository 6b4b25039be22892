"""Command-line harness: generate matrices, factor, measure quality, bench.

Subcommands
-----------
gen      write a test matrix (and its singular values when known by
         construction) to <prefix>.mtx / <prefix>.sv.csv
factor   factor a matrix file, write <prefix>.R.mtx and <prefix>.piv.csv
         (plus <prefix>.Q.mtx with --form-q), print one summary line
quality  run one or more algorithms on a matrix and write per-k truncation
         errors to <prefix>.quality.csv and |R_ii| to <prefix>.rdiag.csv
bench    time algorithms over sizes, write <prefix>.bench.csv with
         standardized GFLOPS ((4/3) n^3 regardless of actual work) and
         the level-3 flop count

Exit codes: 0 success, 2 usage error, 1 runtime error.  Diagnostics go to
stderr; stdout carries only the factor summary lines.  All outputs are
deterministic at fixed seed and configuration (timings excepted): the
matrix generator uses the seed directly and every algorithm run gets a
fresh stream seeded with seed + 1.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from scipy.linalg import svdvals

from .core import FlopCounter, as_matrix
from .householder import hqr_blk, hqr_unb, form_q
from .mio import read_matrix, write_matrix_market
from .pivoting import hqrp_blk
from .quality import reconstruction_error, truncation_errors
from .randomized import hqrrp_blk
from .rng import Xoshiro256pp, gaussian_matrix
from .testmats import gen_bie_single_layer, gen_fast_decay, gen_kahan, gen_s_shape

ALGOS = ("hqr", "hqr-blk", "hqrp", "hqrrp-basic", "hqrrp")
KINDS = ("fast-decay", "s-shape", "bie", "kahan", "gaussian")


def _make_matrix(args):
    """Build (A, sigmas-or-None) for the configured kind and seed."""
    rng = Xoshiro256pp(args.seed)
    kind = args.kind
    if kind == "fast-decay":
        return gen_fast_decay(args.n, rng, beta=args.beta)
    if kind == "s-shape":
        return gen_s_shape(args.n, rng)
    if kind == "bie":
        return gen_bie_single_layer(args.n), None
    if kind == "kahan":
        return gen_kahan(args.n, zeta=args.zeta), None
    if kind == "gaussian":
        m = args.m if args.m is not None else args.n
        return gaussian_matrix(rng, m, args.n), None
    raise ValueError(f"unknown matrix kind {kind!r}")


def _run_algo(algo, work, b, p, seed, fc=None):
    """Factor `work` in place with the named algorithm."""
    if algo == "hqr":
        return hqr_unb(work)
    if algo == "hqr-blk":
        return hqr_blk(work, b, fc)
    if algo == "hqrp":
        return hqrp_blk(work, b, fc)
    if algo == "hqrrp-basic":
        return hqrrp_blk(work, b, Xoshiro256pp(seed + 1), p=p, mode="basic", fc=fc)
    if algo == "hqrrp":
        return hqrrp_blk(work, b, Xoshiro256pp(seed + 1), p=p, mode="downdate", fc=fc)
    raise ValueError(f"unknown algorithm {algo!r}")


def cmd_gen(args) -> int:
    a, sigmas = _make_matrix(args)
    write_matrix_market(f"{args.output}.mtx", a)
    if sigmas is not None:
        with open(f"{args.output}.sv.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "sigma"])
            for j, s in enumerate(sigmas):
                writer.writerow([j, f"{s:.17g}"])
    return 0


def cmd_factor(args) -> int:
    a = read_matrix(args.input)
    fc = FlopCounter()
    f = _run_algo(args.algo, as_matrix(a), args.b, args.p, args.seed, fc)
    write_matrix_market(f"{args.output}.R.mtx", f.r_matrix())
    with open(f"{args.output}.piv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "swap_index"])
        for step, swap in enumerate(f.trail):
            writer.writerow([step, int(swap)])
    if args.form_q is not None:
        write_matrix_market(f"{args.output}.Q.mtx", form_q(f, args.form_q))
    rel = reconstruction_error(a, f)
    m, n = a.shape
    print(f"{args.algo},{n},{m},{args.b},{args.p},{args.seed},{rel:.6e},{fc.count}")
    return 0


def cmd_quality(args) -> int:
    if args.input:
        a, sigmas = read_matrix(args.input), None
    else:
        a, sigmas = _make_matrix(args)
    if args.spectral and sigmas is None:
        sigmas = svdvals(a, check_finite=False)
    r = min(a.shape)
    ks = list(range(0, r + 1, args.b))
    with open(f"{args.output}.quality.csv", "w", newline="") as qf, open(
        f"{args.output}.rdiag.csv", "w", newline=""
    ) as df:
        qw = csv.writer(qf)
        dw = csv.writer(df)
        qw.writerow(["algo", "k", "e_frob", "e_spec", "bound_frob", "bound_spec"])
        dw.writerow(["algo", "i", "abs_rii"])
        for algo in args.algo:
            rep = truncation_errors(
                a,
                _run_algo(algo, as_matrix(a), args.b, args.p, args.seed),
                ks,
                with_spectral=args.spectral,
                sigmas=sigmas,
            )
            for idx, k in enumerate(ks):
                qw.writerow(
                    [
                        algo,
                        k,
                        f"{rep.e_frob[idx]:.17g}",
                        f"{rep.e_spec[idx]:.17g}" if rep.e_spec is not None else "",
                        f"{rep.sv_bound_frob[idx]:.17g}" if sigmas is not None else "",
                        f"{rep.sv_bound_spec[idx]:.17g}" if sigmas is not None else "",
                    ]
                )
            for i, rii in enumerate(rep.r_diag):
                dw.writerow([algo, i, f"{rii:.17g}"])
    return 0


def cmd_bench(args) -> int:
    with open(f"{args.output}.bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "n", "b", "p", "seconds", "std_gflops", "counted_flops"])
        for algo in args.algo:
            for n in args.n:
                # a fresh matrix per run, factored in place: no copy is timed
                a = gaussian_matrix(Xoshiro256pp(args.seed), n, n)
                fc = FlopCounter()
                t0 = time.perf_counter()
                _run_algo(algo, a, args.b, args.p, args.seed, fc)
                seconds = time.perf_counter() - t0
                std_gflops = (4.0 / 3.0) * n**3 / seconds / 1e9
                writer.writerow(
                    [algo, n, args.b, args.p, f"{seconds:.6f}", f"{std_gflops:.3f}", fc.count]
                )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrqr", description="dense QR factorization harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_n=True):
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        sp.add_argument("-o", "--output", required=True, help="output path prefix")
        if needs_n:
            sp.add_argument("--n", type=int, required=True, help="matrix order")

    gen = sub.add_parser("gen", help="generate a test matrix")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--m", type=int, help="rows for kind gaussian (default n)")
    gen.add_argument("--beta", type=float, default=1e-5, help="fast-decay floor")
    gen.add_argument("--zeta", type=float, default=0.99999, help="kahan parameter")
    common(gen)
    gen.set_defaults(func=cmd_gen)

    factor = sub.add_parser("factor", help="factor a matrix file")
    factor.add_argument("--algo", choices=ALGOS, required=True)
    factor.add_argument("--in", dest="input", required=True, help="input matrix file")
    factor.add_argument("--b", type=_positive_int, default=64, help="block size")
    factor.add_argument("--p", type=_nonneg_int, default=5, help="oversampling")
    factor.add_argument("--form-q", type=int, default=None, metavar="K")
    common(factor, needs_n=False)
    factor.set_defaults(func=cmd_factor)

    quality = sub.add_parser("quality", help="truncation-error experiment")
    quality.add_argument("--algo", choices=ALGOS, action="append", required=True)
    quality.add_argument("--kind", choices=KINDS)
    quality.add_argument("--in", dest="input", help="input matrix file")
    quality.add_argument("--m", type=int, help="rows for kind gaussian")
    quality.add_argument("--beta", type=float, default=1e-5)
    quality.add_argument("--zeta", type=float, default=0.99999)
    quality.add_argument("--b", type=_positive_int, default=64)
    quality.add_argument("--p", type=_nonneg_int, default=5)
    quality.add_argument("--spectral", action="store_true", help="add spectral errors")
    quality.add_argument("--n", type=int, help="matrix order (generated kinds)")
    quality.add_argument("--seed", type=int, default=0)
    quality.add_argument("-o", "--output", required=True)
    quality.set_defaults(func=cmd_quality)

    bench = sub.add_parser("bench", help="flop-count benchmark")
    bench.add_argument("--algo", choices=ALGOS, action="append", required=True)
    bench.add_argument("--n", type=_positive_int, action="append", required=True)
    bench.add_argument("--b", type=_positive_int, default=64)
    bench.add_argument("--p", type=_nonneg_int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("-o", "--output", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "quality" and not (args.kind or args.input):
        parser.error("quality needs --kind or --in")
    if args.command == "quality" and args.kind and args.n is None:
        parser.error("--n is required with --kind")
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
