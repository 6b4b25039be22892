"""Bitwise fingerprints of every factorization driver on a fixed grid of inputs.

Usage: python tools/driver_grid.py SRC_DIR

Imports ``rrqr`` from SRC_DIR (the ``src`` directory of a checkout) and
prints one line per case, ``<case> <sha256>``.  The hash covers the packed
factor, the pivot trail, the values of every T block, the counted level-3
flops, |diag(R)|, the thin Q from ``form_q`` and, for hqrrp, the
generator's next 8 words.  Run it on two checkouts and diff the outputs:
each differing line is a case whose results changed in at least one bit.

The grid: hqr_unb, hqrp_unb and hqrp_unb with steps=3; and for every block
size b in {1, 2, 7, 16, 64} (only {16, 64} at 1000 x 1000) hqr_blk,
hqrp_blk, and hqrrp in both modes with p in {0, 5} and seeds {1, 2}.  The
inputs come from numpy's PCG64 alone, so they are the same for every
checkout.  BLAS runs on one thread, so both sides block their sums alike.
"""

import hashlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def _gauss(seed, m, n):
    return np.asfortranarray(np.random.default_rng(seed).standard_normal((m, n)))


def _kahan(n, zeta=0.99999):
    """diag(zeta^i) times the unit upper triangle with off-diagonal -sqrt(1 - zeta^2)."""
    zpow = zeta ** np.arange(n)
    a = np.triu(np.full((n, n), -np.sqrt(1.0 - zeta * zeta)), 1) * zpow[:, None]
    np.fill_diagonal(a, zpow)
    return np.asfortranarray(a)


def _fast_decay(seed, n, beta=1e-5):
    """U diag(beta^(j/(n-1))) V^T with U, V orthogonal factors of Gaussians."""
    u = np.linalg.qr(_gauss(seed, n, n))[0]
    v = np.linalg.qr(_gauss(seed + 1, n, n))[0]
    return np.asfortranarray((u * beta ** (np.arange(n) / (n - 1))) @ v.T)


def inputs():
    """(name, matrix) for every input of the grid."""
    for i, (m, n) in enumerate(
        [(35, 60), (60, 35), (100, 100), (200, 130), (1000, 1000), (0, 5), (5, 0), (1, 1)]
    ):
        yield f"gauss{m}x{n}", _gauss(i + 1, m, n)
    yield "rank5-80x60", np.asfortranarray(_gauss(20, 80, 5) @ _gauss(21, 5, 60))
    yield "kahan90", _kahan(90)
    yield "fastdecay120", _fast_decay(30, 120)
    yield "fastdecay120-scaled", np.ldexp(_fast_decay(30, 120), -1000)


def cases(rrqr, shape):
    """(name, run) pairs; run(a, fc) returns (factors, generator or None)."""
    yield "hqr_unb", lambda a, fc: (rrqr.hqr_unb(a), None)
    yield "hqrp_unb", lambda a, fc: (rrqr.hqrp_unb(a), None)
    yield "hqrp_unb-steps3", lambda a, fc: (rrqr.hqrp_unb(a, steps=3), None)
    for b in (16, 64) if max(shape) >= 1000 else (1, 2, 7, 16, 64):
        yield f"hqr_blk-b{b}", lambda a, fc, b=b: (rrqr.hqr_blk(a, b, fc), None)
        yield f"hqrp_blk-b{b}", lambda a, fc, b=b: (rrqr.hqrp_blk(a, b, fc), None)
        for mode in ("downdate", "basic"):
            for p in (0, 5):
                for seed in (1, 2):

                    def run(a, fc, b=b, p=p, mode=mode, seed=seed):
                        gen = rrqr.Xoshiro256pp(seed)
                        return rrqr.hqrrp_blk(a, b, gen, p=p, mode=mode, fc=fc), gen

                    yield f"hqrrp-{mode}-b{b}-p{p}-s{seed}", run


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        x = np.asarray(x)
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes(order="C"))  # values in one order, whatever the layout
    return h.hexdigest()


def fingerprint(rrqr, run, a) -> str:
    fc = rrqr.FlopCounter()
    f, gen = run(a.copy(order="F"), fc)
    words = gen.raw(8) if gen is not None else np.empty(0, dtype=np.uint64)
    r_diag = np.abs(np.diagonal(f.packed)[: f.r])
    q = rrqr.form_q(f, f.r)
    return digest(f.packed, f.trail, *f.t_blocks, np.int64(fc.count), r_diag, words, q)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[1])
    sys.path.insert(0, src)
    import rrqr

    if not os.path.abspath(rrqr.__file__).startswith(src + os.sep):
        sys.exit(f"rrqr was imported from {rrqr.__file__}, not from {src}")

    for name, a in inputs():
        for case, run in cases(rrqr, a.shape):
            print(f"{name}/{case} {fingerprint(rrqr, run, a)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
