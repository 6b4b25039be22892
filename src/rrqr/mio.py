"""Matrix file I/O: Matrix Market dense arrays and a raw binary format.

Matrix Market files use the dense ``array`` layout::

    %%MatrixMarket matrix array real general
    m n
    <m*n values, one per line, column-major>

The raw binary format is two little-endian uint64 words (rows, cols)
followed by the column-major float64 payload, also little-endian; a file
of any other size than that header asks for is rejected before reading.
Readers validate that every entry is finite.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .core import check_finite

_MM_HEADER = "%%MatrixMarket matrix array real general"


def write_matrix_market(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    check_finite(a, "matrix to write")
    m, n = a.shape
    with open(path, "w") as fh:
        fh.write(_MM_HEADER + "\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(f"{a[i, j]:.17g}\n")


def read_matrix_market(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = header.lower().split()
        if fields[:1] != ["%%matrixmarket"] or fields[1:5] != [
            "matrix",
            "array",
            "real",
            "general",
        ]:
            raise ValueError(f"{path}: unsupported Matrix Market header: {header!r}")
        line = fh.readline()
        while line and (line.lstrip().startswith("%") or not line.strip()):
            line = fh.readline()
        if not line:
            raise ValueError(f"{path}: file ends before the size line")
        toks = line.split()
        if len(toks) != 2 or not all(t.isascii() and t.isdigit() for t in toks):
            raise ValueError(f"{path}: size line {line.strip()!r} is not two integers >= 0")
        m, n = int(toks[0]), int(toks[1])
        rest = fh.read()  # loadtxt warns on input without values, so none is passed
        try:
            # Matrix Market has no `#` comments: such a line is a bad value,
            # not one to skip (skipped, it could leave loadtxt no values)
            data = (
                np.loadtxt(io.StringIO(rest), ndmin=2, comments=None)
                if rest.strip()
                else np.empty((0, 1))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}; expected one value per line") from None
    if data.shape[1] != 1:
        raise ValueError(f"{path}: {data.shape[1]} values on a line; expected one per line")
    if data.size != m * n:
        raise ValueError(f"{path}: expected {m * n} values, found {data.size}")
    a = data.reshape((m, n), order="F")
    return check_finite(a, f"{path}")


def write_raw(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    check_finite(a, "matrix to write")
    m, n = a.shape
    with open(path, "wb") as fh:
        np.array([m, n], dtype="<u8").tofile(fh)
        np.asfortranarray(a).ravel(order="F").astype("<f8").tofile(fh)


def read_raw(path) -> np.ndarray:
    with open(path, "rb") as fh:
        dims = np.fromfile(fh, dtype="<u8", count=2)
        if len(dims) != 2:
            raise ValueError(f"{path}: truncated raw matrix header")
        m, n = int(dims[0]), int(dims[1])
        size = os.fstat(fh.fileno()).st_size
        if size != 16 + 8 * m * n:
            raise ValueError(
                f"{path}: header says {m} x {n}, which needs {16 + 8 * m * n} "
                f"bytes, but the file has {size}"
            )
        data = np.fromfile(fh, dtype="<f8", count=m * n)
    a = data.astype(np.float64).reshape((m, n), order="F")
    return check_finite(a, f"{path}")


def write_matrix(path, a: np.ndarray) -> None:
    """Write by extension: .bin/.raw are binary, anything else Matrix Market."""
    if str(path).endswith((".bin", ".raw")):
        write_raw(path, a)
    else:
        write_matrix_market(path, a)


def read_matrix(path) -> np.ndarray:
    if str(path).endswith((".bin", ".raw")):
        return read_raw(path)
    return read_matrix_market(path)
