"""In-place level-3 kernels: LAPACK dlarfb and BLAS dgemm on strided views.

This is the only module that calls BLAS or LAPACK on views of the
caller's arrays in place.  scipy exports its Fortran kernels to Cython as
PyCapsules in ``scipy.linalg.cython_blas`` and ``cython_lapack``, both
already loaded by ``import scipy.linalg``; the function pointers are read
from them once, at import, through ``ctypes.pythonapi.PyCapsule_GetPointer``,
so every call runs in scipy's own BLAS on the operands where they lie.

ctypes passes raw pointers and leading dimensions, so a view that BLAS
cannot address would corrupt memory instead of raising.  Each capsule's
signature string is therefore checked at import (LP64 ``int *`` integer
arguments, anything else raises ImportError), and each call checks its
arrays by ``check_operand``, the rule the drivers' prologue applies to
its input too, and their shapes.  A bad view raises ValueError before
anything is written.  Operands must not overlap the target, which BLAS
assumes and nothing here checks.

Each wrapper adds the level-3 flops of the products it stands for to an
optional ``core.FlopCounter``: 2 m k n for an m x k times k x n product,
and 4 m k n + k^2 n for a k-wide block reflector of length m applied to n
vectors, its two products and one triangular solve.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
import scipy.linalg.cython_blas as _cython_blas
import scipy.linalg.cython_lapack as _cython_lapack

# one letter per parameter of a capsule's C signature: c = char *,
# i = int * (LP64), d = double *
_PARAM_CODES = {"char *": "c", "int *": "i"}


def _param_codes(signature: str) -> str:
    """Parameter letters of a Cython capsule signature such as ``void (char *, int *)``."""
    params = signature[signature.index("(") + 1 : signature.rindex(")")].split(",")
    # scipy spells double as its own typedef, ``__pyx_t_..._d``
    return "".join(
        "d" if p.strip().endswith("_d *") else _PARAM_CODES.get(p.strip(), "?") for p in params
    )


# private prototypes, so the shared ``ctypes.pythonapi`` attributes keep theirs
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _load(module, name: str, codes: str):
    """ctypes function for `name` from `module`'s capsules; ImportError unless
    its signature reads `codes`."""
    capsule = module.__pyx_capi__[name]
    signature = _capsule_name(capsule).decode()
    if _param_codes(signature) != codes:
        raise ImportError(
            f"scipy's {name} has signature {signature!r}; rrqr passes LP64 int * "
            f"arguments in the order {codes!r} (c = char *, i = int *, d = double *)"
        )
    pointer = _capsule_pointer(capsule, signature.encode())
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(codes))(pointer)


_dgemm = _load(_cython_blas, "dgemm", "cciiiddididdi")
_dlarfb = _load(_cython_lapack, "dlarfb", "cccciiididididi")


def column_major(x: np.ndarray) -> bool:
    """Whether BLAS can address `x` in place as a column-major matrix.

    That holds for an empty `x`, and otherwise when it is aligned, steps
    8 bytes down each column (unless it has one row), and steps a positive
    multiple of 8 bytes, at least 8 times its row count, from one column
    to the next (unless it has one column).
    """
    rows, cols = x.shape
    s0, s1 = x.strides
    return x.size == 0 or (
        x.flags.aligned
        and (rows == 1 or s0 == 8)
        and (cols == 1 or (s1 % 8 == 0 and s1 >= 8 * rows))
    )


_FLOAT64 = np.dtype(np.float64)

# BLAS takes every argument by reference, and reads, never writes, the
# characters, integers and scalars passed here.  So each one is made
# once and shared: characters and the two scalars at import, integers on
# first use.  Arrays go as their data address.
_CHAR = {c: ctypes.byref(ctypes.c_char(c.encode())) for c in "NTLRFC"}
_MINUS_ONE = ctypes.byref(ctypes.c_double(-1.0))
_ONE = ctypes.byref(ctypes.c_double(1.0))


@functools.lru_cache(maxsize=4096)
def _int(i: int):
    return ctypes.byref(ctypes.c_int(i))


def check_operand(x, what: str, written: bool) -> None:
    """ValueError, naming `what`, unless BLAS can work on `x` in place: a
    2-D float64 ndarray, writeable if it is `written`, and ``column_major``."""
    if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == _FLOAT64):
        got = f"{x.ndim}-D {x.dtype} array" if isinstance(x, np.ndarray) else type(x).__name__
        raise ValueError(f"{what} must be a 2-D float64 array, got {got}")
    if written and not x.flags.writeable:
        raise ValueError(f"{what} must be a writeable 2-D float64 array, got a read-only one")
    if not column_major(x):
        raise ValueError(
            f"{what} must be a column-major (Fortran-ordered) 2-D float64 array, got strides "
            f"{x.strides}; rrqr.as_matrix makes one"
        )


def _operand(x, what: str, written: bool = False) -> tuple[int, int]:
    """(data address, leading dimension) of `x`, after ``check_operand``."""
    check_operand(x, what, written)
    rows, cols = x.shape
    ld = max(rows, 1, x.strides[1] // 8 if cols > 1 else 0)
    return x.ctypes.data, ld


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, fc=None) -> None:
    """C -= A B in place: dgemm with alpha = -1 and beta = 1."""
    (pa, lda), (pb, ldb), (pc, ldc) = _operand(a, "A"), _operand(b, "B"), _operand(c, "C", True)
    (m, k), n = a.shape, b.shape[1]
    if b.shape[0] != k or c.shape != (m, n):
        raise ValueError(f"C {c.shape} -= A {a.shape} B {b.shape}: shapes do not match")
    if fc is not None:
        fc.add(2 * m * k * n)
    if m == 0 or n == 0 or k == 0:
        return
    _dgemm(
        _CHAR["N"], _CHAR["N"], _int(m), _int(n), _int(k), _MINUS_ONE, pa, _int(lda), pb,
        _int(ldb), _ONE, pc, _int(ldc),
    )  # fmt: skip


def larfb(side: str, trans: str, v: np.ndarray, t: np.ndarray, c: np.ndarray, fc=None) -> None:
    """C := op(H) C (side "L") or C op(H) (side "R") in place, H = I - V T V^T.

    LAPACK dlarfb with forward direction and columnwise storage: V holds
    one reflector per column and is unit lower trapezoidal, of which only
    the strictly lower part is read, so a packed panel serves as it
    stands; T is its k x k upper-triangular factor.  op(H) is H for
    `trans` "N" and H^T for "T".
    """
    if side not in ("L", "R") or trans not in ("N", "T"):
        raise ValueError(f"side must be 'L' or 'R' and trans 'N' or 'T', got {side!r}, {trans!r}")
    (pv, ldv), (pt, ldt), (pc, ldc) = _operand(v, "V"), _operand(t, "T"), _operand(c, "C", True)
    length, k = v.shape
    along, n = c.shape if side == "L" else c.shape[::-1]
    if t.shape != (k, k) or along != length or length < k:
        raise ValueError(f"V {v.shape}, T {t.shape} and C {c.shape} do not match for side {side}")
    if fc is not None:
        fc.add(4 * length * k * n + k * k * n)
    if c.size == 0 or k == 0:
        return
    work = np.empty((n, k), order="F")
    _dlarfb(
        _CHAR[side], _CHAR[trans], _CHAR["F"], _CHAR["C"], _int(c.shape[0]), _int(c.shape[1]),
        _int(k), pv, _int(ldv), pt, _int(ldt), pc, _int(ldc), work.ctypes.data, _int(n),
    )  # fmt: skip
