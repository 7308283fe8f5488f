"""Matrix file input and output.

Two formats are supported:

* JSON: ``{"dim": n, "entries": [[re, im], ...]}`` with exactly n^2
  row-major pairs.
* Matrix Market: ``matrix coordinate complex general`` and
  ``matrix array complex general`` (read via scipy.io, written at full
  double precision). A ``.mtx.gz`` file is read through gzip; the writer
  writes no gzip and refuses a ``.gz`` target.

Both parsers reject non-square data. Every JSON document the package
writes, matrix files included, is one line of text from ``json_text``.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ParseError

__all__ = [
    "complex_pairs",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "load_matrix",
    "save_matrix",
    "detect_format",
    "atomic_write_text",
    "json_text",
]

_MM_SUFFIXES = (".mtx", ".mm", ".mtx.gz")


def json_text(doc) -> str:
    """A JSON document as one line of text plus a newline. Without
    ``indent`` CPython encodes on its C encoder; floats keep their repr."""
    return json.dumps(doc) + "\n"


def complex_pairs(a) -> list:
    """The entries of ``a``, row-major, as ``[re, im]`` pairs of Python floats."""
    m = np.asarray(a, dtype=np.complex128)
    return np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()


def matrix_to_json_dict(a) -> dict:
    return {"dim": int(np.shape(a)[0]), "entries": complex_pairs(a)}


def matrix_from_json_dict(doc: dict) -> np.ndarray:
    try:
        dim = int(doc["dim"])
        pairs = np.array(doc["entries"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix JSON: {exc}") from exc
    if dim < 1:
        raise ParseError("matrix dimension must be at least 1")
    if pairs.shape != (dim * dim, 2):
        raise ParseError(
            f"expected {dim * dim} [re, im] pairs for a {dim}x{dim} matrix, "
            f"got entries of shape {pairs.shape}"
        )
    # A null inside a pair reads as NaN, so the finite check rejects it too.
    if not np.isfinite(pairs).all():
        raise ParseError("matrix entries must be finite")
    # Viewing the pairs keeps a -0.0 imaginary part, which re + 1j * im loses.
    return pairs.view(np.complex128).reshape(dim, dim)


def detect_format(path: str | Path, fmt: str | None = None) -> str:
    """Resolve 'json' or 'matrix-market' from an explicit format or the
    file extension."""
    if fmt is not None:
        if fmt not in ("json", "matrix-market"):
            raise ParseError(f"unknown matrix format {fmt!r}")
        return fmt
    # The end of the name, not Path.suffix, which is ".gz" for "m.mtx.gz".
    name = Path(path).name.lower()
    if name.endswith(".json"):
        return "json"
    if name.endswith(_MM_SUFFIXES):
        return "matrix-market"
    raise ParseError(
        f"cannot infer matrix format from {Path(path).name!r}; pass --format"
    )


def load_matrix(path: str | Path, fmt: str | None = None) -> np.ndarray:
    resolved = detect_format(path, fmt)
    if resolved != "json":
        # Only Matrix Market reads need scipy, which costs more to import than
        # the rest of the package; outside the try, a missing scipy is not a
        # ParseError.
        import scipy.io
        import scipy.sparse
    try:
        if resolved == "json":
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return matrix_from_json_dict(doc)
        raw = scipy.io.mmread(os.fspath(path))
    except ParseError:
        raise
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ParseError(f"cannot parse {Path(path).name!r}: {exc}") from exc
    m = np.asarray(
        raw.todense() if scipy.sparse.issparse(raw) else raw, dtype=np.complex128
    )
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError(f"matrix in {Path(path).name!r} is not square: {m.shape}")
    if not np.isfinite(m).all():
        raise ParseError("matrix entries must be finite")
    return m


def _mm_text(a: np.ndarray) -> str:
    import scipy.io

    buf = io.BytesIO()
    scipy.io.mmwrite(buf, a, field="complex", precision=17)
    return buf.getvalue().decode("ascii")


def save_matrix(path: str | Path, a, fmt: str | None = None) -> None:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError(f"refusing to write non-square matrix of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ParseError("matrix entries must be finite")
    resolved = detect_format(path, fmt)
    if resolved == "matrix-market" and Path(path).name.lower().endswith(".gz"):
        raise ParseError(f"refusing to write uncompressed text to {Path(path).name!r}")
    if resolved == "json":
        text = json_text(matrix_to_json_dict(m))
    else:
        text = _mm_text(m)
    atomic_write_text(path, text)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file in the target directory plus rename."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
