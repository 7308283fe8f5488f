import gzip
import io
import json
import struct

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from opclass.errors import ParseError
from opclass.matio import (
    detect_format,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    save_matrix,
)

from conftest import ginibre


def test_json_round_trip_is_exact(tmp_path):
    a = ginibre(4, np.random.default_rng(0))
    path = tmp_path / "a.json"
    save_matrix(path, a)
    b = load_matrix(path)
    np.testing.assert_array_equal(a, b)


def test_json_dict_round_trip():
    a = ginibre(3, np.random.default_rng(1))
    np.testing.assert_array_equal(matrix_from_json_dict(matrix_to_json_dict(a)), a)


def _extremes() -> np.ndarray:
    """Signed zeros in both parts, subnormals and magnitudes 1e+-300."""
    tiny = np.nextafter(0.0, 1.0)
    return np.array([
        [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
        [complex(tiny, -tiny), complex(2.5e-310, -1e-320), complex(1e300, -1e-300)],
        [complex(-1e300, 1e300), complex(1e-300, 0.1), complex(np.pi, -np.e)],
    ])


def test_json_save_load_is_bitwise(tmp_path):
    a = _extremes()
    path = tmp_path / "x.json"
    save_matrix(path, a)
    assert load_matrix(path).tobytes() == a.tobytes()


def test_json_entries_equal_per_entry_floats_bitwise():
    a = _extremes()
    entries = matrix_to_json_dict(a)["entries"]
    expected = [[float(z.real), float(z.imag)] for z in a.ravel()]
    assert all(type(x) is float for pair in entries for x in pair)
    # Bytes, not ==, since -0.0 == 0.0.
    flat = [x for pair in entries for x in pair]
    assert struct.pack(f"{len(flat)}d", *flat) == struct.pack(
        f"{len(flat)}d", *(x for pair in expected for x in pair))


@pytest.mark.parametrize("entries", [
    [[1.0, 0.0, 0.0]],
    5,
    None,
    "abc",
    {"re": 1.0, "im": 0.0},
    [[1.0, 0.0], [2.0]],
    [[None, 0.0]],
    [["abc", 0.0]],
    [[10**400, 0.0]],
])
def test_json_malformed_entries_are_parse_errors(entries):
    with pytest.raises(ParseError):
        matrix_from_json_dict({"dim": 1, "entries": entries})


def test_json_indented_file_still_loads(tmp_path):
    a = _extremes()
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(matrix_to_json_dict(a), indent=2) + "\n")
    assert load_matrix(path).tobytes() == a.tobytes()


def test_json_rejects_wrong_entry_count():
    with pytest.raises(ParseError):
        matrix_from_json_dict({"dim": 2, "entries": [[1, 0], [0, 0], [0, 0]]})


def test_json_rejects_nonfinite():
    with pytest.raises(ParseError):
        matrix_from_json_dict({"dim": 1, "entries": [[float("inf"), 0.0]]})


@pytest.mark.parametrize("name", ["m.json", "m.mtx"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_save_rejects_nonfinite(tmp_path, name, bad):
    # The loader rejects non-finite entries, and a JSON NaN token is not
    # standard JSON, so the writer refuses them and writes no file.
    path = tmp_path / name
    with pytest.raises(ParseError, match="finite"):
        save_matrix(path, [[1.0, 0.0], [bad, 1.0]])
    assert list(tmp_path.iterdir()) == []


def test_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_matrix_market_array_round_trip(tmp_path):
    a = ginibre(3, np.random.default_rng(2))
    path = tmp_path / "a.mtx"
    save_matrix(path, a)
    assert "array complex general" in path.read_text().splitlines()[0]
    b = load_matrix(path)
    np.testing.assert_allclose(a, b, rtol=0, atol=0)


def test_matrix_market_coordinate_round_trip(tmp_path):
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.5 - 2.25j
    a[2, 0] = 3.0
    path = tmp_path / "coord.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(a), field="complex", precision=17)
    assert "coordinate complex general" in path.read_text().splitlines()[0]
    b = load_matrix(path)
    np.testing.assert_array_equal(a, b)


def test_matrix_market_rejects_nonsquare(tmp_path):
    path = tmp_path / "rect.mtx"
    scipy.io.mmwrite(str(path), np.ones((2, 3)))
    with pytest.raises(ParseError):
        load_matrix(path)


def test_json_rejects_nonsquare_write(tmp_path):
    with pytest.raises(ParseError):
        save_matrix(tmp_path / "x.json", np.ones((2, 3)))


def test_detect_format():
    assert detect_format("m.json") == "json"
    assert detect_format("m.mtx") == "matrix-market"
    assert detect_format("m.mm") == "matrix-market"
    assert detect_format("m.dat", "json") == "json"
    with pytest.raises(ParseError):
        detect_format("m.dat")
    with pytest.raises(ParseError):
        detect_format("m.json", "parquet")


def test_format_override(tmp_path):
    a = ginibre(2, np.random.default_rng(3))
    path = tmp_path / "weird.dat"
    save_matrix(path, a, "json")
    b = load_matrix(path, "json")
    np.testing.assert_array_equal(a, b)


def test_matrix_market_gzip_is_read(tmp_path):
    # Path.suffix of "a.mtx.gz" is ".gz"; the format comes from the name's end.
    assert detect_format("a.mtx.gz") == detect_format("A.MTX.GZ") == "matrix-market"
    a = ginibre(3, np.random.default_rng(4))
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, a, field="complex", precision=17)
    path = tmp_path / "a.mtx.gz"
    path.write_bytes(gzip.compress(buf.getvalue()))
    np.testing.assert_array_equal(load_matrix(path), a)


@pytest.mark.parametrize("name, fmt", [("x.mtx.gz", None), ("x.gz", "matrix-market")])
def test_save_refuses_gzip_matrix_market(tmp_path, name, fmt):
    # The writer writes plain text, which the loader would then read as a
    # broken gzip file; it refuses the target before writing anything.
    with pytest.raises(ParseError, match="uncompressed"):
        save_matrix(tmp_path / name, np.eye(2), fmt)
    assert list(tmp_path.iterdir()) == []
