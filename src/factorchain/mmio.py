"""Matrix Market coordinate I/O for symmetric real matrices.

Values are written with shortest round-trip formatting, so write followed
by read reproduces every float bit for bit, and header comment lines are
returned to the caller instead of being dropped.
"""

from __future__ import annotations

import io
from typing import Sequence

import numpy as np

from .errors import NonSymmetricError, SerializationError
from .sparse import SparseSymMatrix

_HEADER_SYM = "%%MatrixMarket matrix coordinate real symmetric"
_HEADER_GEN = "%%MatrixMarket matrix coordinate real general"


def write_matrix_string(m: SparseSymMatrix, comments: Sequence[str] = ()) -> str:
    """Render as Matrix Market text (lower triangle, 1-based indices)."""
    out = io.StringIO()
    out.write(_HEADER_SYM + "\n")
    for line in comments:
        if "\n" in line:
            raise SerializationError("comment lines must not contain newlines")
        out.write(f"%{line}\n")
    out.write(f"{m.n} {m.n} {m.nnz}\n")
    # stored upper triangle goes out transposed to match the usual
    # lower-triangular layout of symmetric Matrix Market files
    for r, c, v in zip(m.rows, m.cols, m.vals):
        out.write(f"{c + 1} {r + 1} {float(v)!r}\n")
    return out.getvalue()


def read_matrix_string(text: str) -> tuple[SparseSymMatrix, list[str]]:
    """Parse Matrix Market text; returns (matrix, comment lines)."""
    lines = text.splitlines()
    if not lines:
        raise SerializationError("empty matrix market input")
    header = lines[0].strip()
    if header not in (_HEADER_SYM, _HEADER_GEN):
        raise SerializationError(f"unsupported matrix market header: {header!r}")
    comments: list[str] = []
    idx = 1
    while idx < len(lines) and lines[idx].startswith("%"):
        comments.append(lines[idx][1:])
        idx += 1
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise SerializationError("missing size line")
    try:
        nr, nc, nnz = (int(t) for t in lines[idx].split())
    except ValueError as exc:
        raise SerializationError(f"bad size line: {lines[idx]!r}") from exc
    if nr != nc:
        raise NonSymmetricError("matrix market input is not square")
    # allocate by the entries present, never by the size line alone
    entries = [line for line in lines[idx + 1:] if line.strip()]
    if len(entries) != nnz:
        raise SerializationError(f"expected {nnz} entries, found {len(entries)}")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    for k, line in enumerate(entries):
        parts = line.split()
        if len(parts) != 3:
            raise SerializationError(f"bad entry line: {line.strip()!r}")
        rows[k] = int(parts[0]) - 1
        cols[k] = int(parts[1]) - 1
        vals[k] = float(parts[2])
    # a symmetric file stores one triangle, a general one both; the
    # mirror-merge accepts either and raises on conflicting mirrors
    return SparseSymMatrix.from_entries(nr, rows, cols, vals), comments


def write_matrix(path, m: SparseSymMatrix, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_matrix_string(m, comments))


def read_matrix(path) -> tuple[SparseSymMatrix, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix_string(fh.read())
