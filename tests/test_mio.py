import warnings

import numpy as np
import pytest

import rrqr.cli
from rrqr.mio import (
    read_matrix,
    read_matrix_market,
    read_raw,
    write_matrix_market,
    write_raw,
)

from conftest import gauss


def test_matrix_market_roundtrip(tmp_path):
    a = gauss(1, 9, 5)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    b = read_matrix_market(path)
    assert np.array_equal(a, b)  # %.17g round-trips doubles exactly


def test_matrix_market_layout(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 2"
    assert [float(v) for v in lines[2:]] == [1.0, 2.0, 3.0, 4.0]  # column-major


def test_raw_roundtrip(tmp_path):
    a = gauss(2, 4, 7)
    path = tmp_path / "a.bin"
    write_raw(path, a)
    b = read_raw(path)
    assert np.array_equal(a, b)


def test_raw_header_is_little_endian_u64(tmp_path):
    path = tmp_path / "a.bin"
    write_raw(path, np.ones((3, 2)))
    blob = path.read_bytes()
    assert blob[:8] == (3).to_bytes(8, "little")
    assert blob[8:16] == (2).to_bytes(8, "little")
    assert len(blob) == 16 + 6 * 8


def test_read_dispatch_by_extension(tmp_path):
    a = gauss(3, 3, 3)
    write_raw(tmp_path / "x.bin", a)
    write_matrix_market(tmp_path / "x.mtx", a)
    assert np.array_equal(read_matrix(tmp_path / "x.bin"), a)
    assert np.array_equal(read_matrix(tmp_path / "x.mtx"), a)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n0 0 1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_nonfinite_rejected_on_write(tmp_path):
    a = np.ones((2, 2))
    a[0, 1] = np.nan
    with pytest.raises(ValueError):
        write_matrix_market(tmp_path / "nan.mtx", a)
    with pytest.raises(ValueError):
        write_raw(tmp_path / "nan.bin", a)


def test_nonfinite_rejected_on_read(tmp_path):
    path = tmp_path / "inf.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 1\n1.0\ninf\n"
    )
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_truncated_raw_rejected(tmp_path):
    path = tmp_path / "short.bin"
    write_raw(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_raw(path)


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix array real general\n",
        "%%MatrixMarket matrix array real general\n% a comment\n\n",
    ],
    ids=["header-only", "header-and-comment"],
)
def test_file_ending_before_size_line_rejected(tmp_path, text):
    path = tmp_path / "short.mtx"
    path.write_text(text)
    with pytest.raises(ValueError, match="short.mtx"):
        read_matrix_market(path)


def test_factor_exits_1_on_file_ending_before_size_line(tmp_path, capsys):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n% a comment\n")
    argv = ["factor", "--algo", "hqr", "--in", str(path), "-o", str(tmp_path / "f")]
    assert rrqr.cli.main(argv) == 1
    assert "short.mtx" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size", ["-1 -1", "2 2 4", "2 -3", "2 x", "3", "2.0 2"],
    ids=["negative", "three-fields", "negative-no-values", "not-a-number", "one-field", "float"],
)
def test_bad_size_line_rejected(tmp_path, size):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n1.0\n2.0\n3.0\n4.0\n")
    with pytest.raises(ValueError, match="bad.mtx"):
        read_matrix_market(path)


@pytest.mark.parametrize("size", ["0 0", "0 3", "3 0"])
def test_empty_matrix_reads_without_warning(tmp_path, size):
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = read_matrix_market(path)
    assert a.shape == tuple(int(t) for t in size.split())


def test_empty_matrix_with_values_rejected(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n0 3\n1.0\n")
    with pytest.raises(ValueError, match="expected 0 values, found 1"):
        read_matrix_market(path)


def test_missing_values_rejected_without_warning(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected 4 values, found 0"):
            read_matrix_market(path)


@pytest.mark.parametrize("values", ["# c", "1.0\n# c\n2.0\n3.0\n4.0"])
def test_hash_line_is_a_bad_value_not_a_comment(tmp_path, values):
    # Matrix Market has no `#` comments; skipped as one, a lone `# c` left
    # loadtxt no data, and it warned before the reader's own error
    path = tmp_path / "hash.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n2 2\n{values}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hash.mtx"):
            read_matrix_market(path)


@pytest.mark.parametrize("values", ["1 2\n3 4", "1 2 3 4", "1\n2\n3 4"])
def test_several_values_on_a_line_rejected(tmp_path, values):
    # read as one column-major stream, "1 2 / 3 4" would be [[1, 3], [2, 4]],
    # but row-wise it reads [[1, 2], [3, 4]]; the format has one value a line
    path = tmp_path / "rows.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n2 2\n{values}\n")
    with pytest.raises(ValueError, match="rows.mtx"):
        read_matrix_market(path)


def test_factor_exits_1_on_bad_size_line(tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2 4\n1\n2\n3\n4\n")
    argv = ["factor", "--algo", "hqr", "--in", str(path), "-o", str(tmp_path / "f")]
    assert rrqr.cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.mtx" in err


@pytest.mark.parametrize(
    "dims,payload",
    [((2**20, 2**20), 32), ((2**40, 2**40), 32), ((2, 2), 40)],
    ids=["huge", "overflow", "extra-values"],
)
def test_raw_size_must_match_header(tmp_path, dims, payload):
    # checked against the file size before anything is allocated or read
    path = tmp_path / "bad.bin"
    path.write_bytes(np.array(dims, dtype="<u8").tobytes() + bytes(payload))
    with pytest.raises(ValueError, match="bad.bin"):
        read_raw(path)


def test_factor_exits_1_on_raw_size_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(np.array([2**20, 2**20], dtype="<u8").tobytes() + bytes(32))
    argv = ["factor", "--algo", "hqr", "--in", str(path), "-o", str(tmp_path / "f")]
    assert rrqr.cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.bin" in err
