"""The in-place BLAS/LAPACK kernels: their results, their flop counts, the
capsule signatures they are loaded from, and the views they refuse."""

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg.cython_blas
import scipy.linalg.cython_lapack

from rrqr import FlopCounter, hqr_blk, hqr_unb_formT
from rrqr import _kernels
from rrqr._kernels import column_major, gemm, larfb

from conftest import gauss


def _signature(module, name):
    return _kernels._capsule_name(module.__pyx_capi__[name]).decode()


@pytest.mark.parametrize(
    "module,name,codes",
    [
        (scipy.linalg.cython_blas, "dgemm", "cciiiddididdi"),
        (scipy.linalg.cython_lapack, "dlarfb", "cccciiididididi"),
    ],
)
def test_capsules_take_lp64_int_pointers(module, name, codes):
    signature = _signature(module, name)
    assert _kernels._param_codes(signature) == codes
    params = [p.strip() for p in signature[signature.index("(") + 1 : -1].split(",")]
    assert [p for p in params if "int" in p] == ["int *"] * codes.count("i")


@pytest.mark.parametrize(
    "signature",
    [
        # an ILP64 build, a changed typedef, a parameter too few
        "void (char *, char *, npy_int64 *, int *, int *, __pyx_t_d *, __pyx_t_d *, int *, "
        "__pyx_t_d *, int *, __pyx_t_d *, __pyx_t_d *, int *)",
        "void (char *, char *, long *, long *, long *, double *, double *, long *, double *, "
        "long *, double *, double *, long *)",
        "void (char *, char *, int *, int *, int *, __pyx_t_d *, __pyx_t_d *, int *, "
        "__pyx_t_d *, int *, __pyx_t_d *, __pyx_t_d *)",
    ],
)
def test_a_changed_capsule_signature_fails_at_load(signature):
    name = signature.encode()  # the capsule keeps a pointer to these bytes
    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi)
    )
    capsule = new(1, name, None)
    fake = SimpleNamespace(__pyx_capi__={"dgemm": capsule})
    with pytest.raises(ImportError, match="LP64"):
        _kernels._load(fake, "dgemm", "cciiiddididdi")


def _f(x):
    return np.asfortranarray(x)


def test_gemm_subtracts_the_product_in_place():
    a, b, c = gauss(1, 9, 4), gauss(2, 4, 6), gauss(3, 9, 6)
    want = c - a @ b
    fc = FlopCounter()
    gemm(a, b, c, fc)
    assert np.allclose(c, want, rtol=0, atol=1e-13)
    assert fc.count == 2 * 9 * 4 * 6


def test_gemm_works_on_strided_column_blocks():
    big = gauss(4, 12, 20)
    a, b = big[2:9, :3], gauss(5, 3, 4)
    c = big[1:8, 10:18:2]  # column stride 2 * 12 doubles
    want = c - a @ b
    outside = big.copy()
    gemm(a, b, c)
    assert np.allclose(big[1:8, 10:18:2], want, rtol=0, atol=1e-13)
    outside[1:8, 10:18:2] = big[1:8, 10:18:2]
    assert np.array_equal(big, outside)  # nothing else was written


@pytest.mark.parametrize("m,k,n", [(0, 3, 4), (5, 0, 4), (5, 3, 0)])
def test_gemm_zero_sizes(m, k, n):
    a, b, c = np.zeros((m, k), order="F"), np.ones((k, n), order="F"), np.ones((m, n), order="F")
    gemm(a, b, c)
    assert np.array_equal(c, np.ones((m, n)))


def _block_reflector(v, t):
    """Dense I - V T V^T of a unit lower trapezoidal V."""
    u = np.tril(v, -1)
    u[np.diag_indices(v.shape[1])] = 1.0
    return np.eye(v.shape[0]) - u @ t @ u.T


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("trans", ["N", "T"])
def test_larfb_matches_the_dense_block_reflector(side, trans):
    v = gauss(6, 11, 4)  # the diagonal and above are not read
    t = _f(np.triu(gauss(7, 4, 4)) + 2 * np.eye(4))
    c = gauss(8, 11, 5) if side == "L" else gauss(8, 5, 11)
    h = _block_reflector(v, t)
    op = h if trans == "N" else h.T
    want = op @ c if side == "L" else c @ op
    fc = FlopCounter()
    larfb(side, trans, v, t, c, fc)
    assert np.allclose(c, want, rtol=0, atol=1e-12)
    assert fc.count == 4 * 11 * 4 * 5 + 4 * 4 * 5


def _bad_cases():
    """(name, gemm args, larfb args), each with one bad view, its target last."""
    a, b, c = gauss(1, 6, 3), gauss(2, 3, 4), gauss(3, 6, 4)
    v, t = gauss(4, 6, 3), _f(np.triu(gauss(5, 3, 3)) + 2 * np.eye(3))
    read_only = c.copy(order="F")
    read_only.flags.writeable = False
    return [
        ("C-ordered target", (a, b, np.ascontiguousarray(c)), (v, t, np.ascontiguousarray(c))),
        ("C-ordered operand", (np.ascontiguousarray(a), b, c), (np.ascontiguousarray(v), t, c)),
        ("negative-stride target", (a, b, c[::-1]), (v, t, c[::-1])),
        ("negative-stride operand", (a, b[:, ::-1], c), (v, t[:, ::-1], c)),
        ("read-only target", (a, b, read_only), (v, t, read_only)),
        ("float32 target", (a, b, c.astype(np.float32)), (v, t, c.astype(np.float32))),
        ("float32 operand", (a.astype(np.float32), b, c), (v, t.astype(np.float32), c)),
        ("mismatched shapes", (a, b[:2], c), (v, t[:2, :2], c)),
        ("target too short", (a, b, c[:5]), (v, t, c[:5])),
        ("1-D target", (a[:, 0], b[0], c[:, 0]), (v, t, c[:, 0])),
    ]


@pytest.mark.parametrize("case", range(len(_bad_cases())), ids=[x[0] for x in _bad_cases()])
def test_bad_views_raise_and_write_nothing(case):
    _, gemm_args, larfb_args = _bad_cases()[case]
    for run, args in ((gemm, gemm_args), (lambda *x: larfb("L", "T", *x), larfb_args)):
        target = args[-1]
        before = target.copy()
        with pytest.raises(ValueError):
            run(*args)
        assert np.array_equal(target, before)


def _bad_layout(kind):
    """A 6 x 4 matrix in a form that BLAS cannot change in place."""
    x = gauss(11, 6, 4)
    if kind == "read-only":
        x.flags.writeable = False
        return x
    return {
        "float32": x.astype(np.float32),
        "1-D": x[:, 0].copy(),
        "row-major": np.ascontiguousarray(x),
    }[kind]


@pytest.mark.parametrize("kind", ["float32", "1-D", "read-only", "row-major"])
def test_prologue_and_kernels_apply_one_rule(kind):
    # a driver's input, a panel and a kernel's operands fail the same way,
    # with the same words after the argument's name, and nothing is written
    a, b = gauss(12, 6, 3), gauss(13, 3, 4)
    v, t = gauss(14, 6, 3), _f(np.triu(gauss(15, 3, 3)) + 2 * np.eye(3))
    runs = [
        ("input", lambda x: hqr_blk(x, 2)),
        ("panel", hqr_unb_formT),
        ("C", lambda x: gemm(a, b, x)),
        ("C", lambda x: larfb("L", "T", v, t, x)),
    ]
    if kind != "read-only":  # an operand that is only read may be read-only
        runs += [
            ("A", lambda x: gemm(x[:, :3] if x.ndim == 2 else x, b, gauss(16, 6, 4))),
            ("V", lambda x: larfb("L", "T", x[:, :3] if x.ndim == 2 else x, t, gauss(16, 6, 4))),
        ]
    tails = set()
    for name, run in runs:
        x = _bad_layout(kind)
        before = x.copy()
        with pytest.raises(ValueError, match="2-D float64 array") as err:
            run(x)
        assert np.array_equal(x, before)
        head, tail = str(err.value).split(" ", 1)
        assert head == name
        tails.add(tail)  # x[:, :3] has the strides of x
    assert len(tails) == 1, tails


def test_larfb_rejects_unknown_side_and_trans():
    v, t, c = gauss(1, 6, 2), _f(np.eye(2)), gauss(2, 6, 3)
    for side, trans in (("X", "N"), ("L", "C")):
        with pytest.raises(ValueError, match="side"):
            larfb(side, trans, v, t, c)


def test_larfb_rejects_v_shorter_than_wide():
    v, t, c = gauss(1, 2, 3), _f(np.eye(3)), gauss(2, 2, 4)
    with pytest.raises(ValueError, match="do not match"):
        larfb("L", "T", v, t, c)


@pytest.mark.parametrize(
    "x,expected",
    [
        (np.zeros((4, 3), order="F"), True),
        (np.zeros((4, 3)), False),
        (np.zeros((4, 3), order="F")[:, ::2], True),
        (np.zeros((4, 3), order="F")[::2], False),
        (np.zeros((4, 3), order="F")[::-1], False),
        (np.zeros((1, 5)), True),  # one row: the row stride is never used
        (np.zeros((5, 1)), True),  # one column: the column stride is never used
        (np.zeros((0, 5)), True),
    ],
)
def test_column_major(x, expected):
    assert column_major(x) is expected


def test_unit_block_reflector_through_a_packed_panel():
    # the panel's R diagonal and upper part are not read as part of V
    panel = gauss(9, 7, 3)
    t, _ = hqr_unb_formT(panel)
    scribbled = panel.copy(order="F")
    scribbled[np.triu_indices(3)] = 123.0
    c1, c2 = gauss(10, 7, 4), gauss(10, 7, 4)
    t_lapack = _f(np.linalg.inv(t))
    larfb("L", "T", panel, t_lapack, c1)
    larfb("L", "T", scribbled, t_lapack, c2)
    assert np.array_equal(c1, c2)
